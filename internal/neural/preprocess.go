package neural

import (
	"fmt"
	"math"
)

// Preprocessor transforms a raw input window before it reaches the
// network. The paper attaches "several signal preprocessors based on
// polynomial functions which have the purpose of removing the
// unwanted noise from the processed signal".
type Preprocessor interface {
	// ProcessInto writes the de-noised window into dst, which must have
	// the same length as window and must not alias it. Implementations
	// must not retain the input and may reuse internal scratch across
	// calls, so a Preprocessor is not safe for concurrent use.
	ProcessInto(dst, window []float64)
}

// Identity passes the window through unchanged.
type Identity struct{}

// ProcessInto implements Preprocessor.
func (Identity) ProcessInto(dst, window []float64) {
	copy(dst, window)
}

// PolySmoother least-squares-fits a polynomial of the configured
// degree to the window and returns the fitted values — a zero-delay
// smoothing filter (Savitzky–Golay style, full-window variant). The
// fit is recomputed per call; ProcessInto keeps that recomputation
// allocation-free by reusing the solver scratch, which is what keeps
// the neural predictor the slowest-but-still-microsecond method in
// Fig. 6 without making it the allocation hot spot of the tick loop.
type PolySmoother struct {
	// Degree of the fitted polynomial; 2 works well for the 6-sample
	// windows the paper uses.
	Degree int

	scratch polyScratch
}

// ProcessInto implements Preprocessor. It reuses the receiver's
// scratch, so it allocates only on the first call (or when the window
// geometry grows).
func (p *PolySmoother) ProcessInto(dst, window []float64) {
	n := len(window)
	deg := p.Degree
	if deg < 0 {
		deg = 0
	}
	if deg >= n {
		copy(dst, window)
		return
	}
	coef := p.scratch.fit(window, deg)
	for i := 0; i < n; i++ {
		dst[i] = polyval(coef, float64(i))
	}
}

// polyScratch holds the reusable temporaries of the normal-equation
// solve: the power sums, the elimination matrix (row headers over one
// flat cell buffer, so pivoting swaps headers without moving data),
// and the coefficient vector that fit returns (valid until the next
// fit call).
type polyScratch struct {
	s, tv, coef []float64
	rows        [][]float64
	cells       []float64
}

func (ps *polyScratch) ensure(k int) {
	if cap(ps.coef) >= k {
		return
	}
	ps.s = make([]float64, 2*k-1)
	ps.tv = make([]float64, k)
	ps.coef = make([]float64, k)
	ps.rows = make([][]float64, k)
	ps.cells = make([]float64, k*(k+1))
}

// fit solves the degree-d least-squares fit of y[i] ~ poly(i) by the
// normal equations with Gaussian elimination, in the exact operation
// order of the original allocating implementation (the neural goldens
// depend on the bits). Windows are tiny (6–12 samples, degree <= 3),
// so the cubic cost is irrelevant.
func (ps *polyScratch) fit(y []float64, degree int) []float64 {
	n := len(y)
	k := degree + 1
	ps.ensure(k)
	// Precompute power sums S_m = sum(i^m) and T_m = sum(i^m * y_i).
	s := ps.s[:2*k-1]
	tv := ps.tv[:k]
	for m := range s {
		s[m] = 0
	}
	for m := range tv {
		tv[m] = 0
	}
	for i := 0; i < n; i++ {
		x := float64(i)
		pw := 1.0
		for m := 0; m < 2*k-1; m++ {
			s[m] += pw
			if m < k {
				tv[m] += pw * y[i]
			}
			pw *= x
		}
	}
	// Build the normal-equation matrix A[r][c] = S_{r+c}. Row headers
	// are re-pointed at their canonical cell windows every call because
	// pivoting below permutes them.
	a := ps.rows[:k]
	for r := 0; r < k; r++ {
		a[r] = ps.cells[r*(k+1) : (r+1)*(k+1) : (r+1)*(k+1)]
		for c := 0; c < k; c++ {
			a[r][c] = s[r+c]
		}
		a[r][k] = tv[r]
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if a[col][col] == 0 {
			continue // singular; coefficient stays zero
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	coef := ps.coef[:k]
	for r := k - 1; r >= 0; r-- {
		if a[r][r] == 0 {
			coef[r] = 0
			continue
		}
		sum := a[r][k]
		for c := r + 1; c < k; c++ {
			sum -= a[r][c] * coef[c]
		}
		coef[r] = sum / a[r][r]
	}
	return coef
}

// polyval evaluates the polynomial (Horner).
func polyval(coef []float64, x float64) float64 {
	v := 0.0
	for i := len(coef) - 1; i >= 0; i-- {
		v = v*x + coef[i]
	}
	return v
}

// Normalizer maps raw values into the network's working range [0, 1]
// given a fixed capacity, and back.
type Normalizer struct {
	// Capacity is the value mapped to 1.0; it must be positive.
	Capacity float64
}

// NewNormalizer validates the capacity.
func NewNormalizer(capacity float64) (Normalizer, error) {
	if capacity <= 0 {
		return Normalizer{}, fmt.Errorf("neural: capacity must be positive, got %v", capacity)
	}
	return Normalizer{Capacity: capacity}, nil
}

// Norm maps a raw value into [0, ...]; values above capacity exceed 1.
func (n Normalizer) Norm(v float64) float64 { return v / n.Capacity }

// Denorm inverts Norm, clamping at zero (a population prediction can
// never be negative).
func (n Normalizer) Denorm(v float64) float64 {
	out := v * n.Capacity
	if out < 0 {
		return 0
	}
	return out
}
