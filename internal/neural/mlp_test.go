package neural

import (
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

func TestNewMLPValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewMLP(r, 6); err == nil {
		t.Error("single-layer network should be rejected")
	}
	if _, err := NewMLP(r, 6, 0, 1); err == nil {
		t.Error("zero-width layer should be rejected")
	}
	m, err := NewMLP(r, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputSize() != 6 || m.OutputSize() != 1 {
		t.Fatalf("sizes = (%d, %d)", m.InputSize(), m.OutputSize())
	}
}

func TestForwardDeterministic(t *testing.T) {
	m1, _ := NewMLP(xrand.New(5), 4, 3, 2)
	m2, _ := NewMLP(xrand.New(5), 4, 3, 2)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	o1 := append([]float64(nil), m1.Forward(in)...)
	o2 := m2.Forward(in)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same-seed networks disagree at output %d", i)
		}
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size input did not panic")
		}
	}()
	m.Forward([]float64{1, 2})
}

func TestTrainReducesLossOnLinearFunction(t *testing.T) {
	m, _ := NewMLP(xrand.New(7), 2, 4, 1)
	f := func(x, y float64) float64 { return 0.3*x - 0.2*y + 0.1 }
	r := xrand.New(8)
	var first, last float64
	const steps = 4000
	for i := 0; i < steps; i++ {
		x, y := r.Float64(), r.Float64()
		loss := m.Train([]float64{x, y}, []float64{f(x, y)}, 0.05, 0.5)
		if i < 100 {
			first += loss
		}
		if i >= steps-100 {
			last += loss
		}
	}
	if last > first/3 {
		t.Fatalf("loss did not shrink: first-100 sum %v, last-100 sum %v", first, last)
	}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// XOR-like target requires the hidden layer.
	m, _ := NewMLP(xrand.New(11), 2, 6, 1)
	data := Samples{In: 2, Out: 1, Rows: []float64{
		0, 0, 0,
		0, 1, 1,
		1, 0, 1,
		1, 1, 0,
	}}
	res := m.Fit(data, Samples{}, TrainConfig{LearningRate: 0.1, Momentum: 0.5, MaxEras: 4000, Patience: 4000})
	if res.TrainLoss > 0.03 {
		t.Fatalf("XOR loss after %d eras = %v", res.Eras, res.TrainLoss)
	}
	for r := 0; r < data.Len(); r++ {
		in, target := data.Row(r)
		out := m.Forward(in)[0]
		if math.Abs(out-target[0]) > 0.3 {
			t.Errorf("XOR(%v) = %v, want %v", in, out, target[0])
		}
	}
}

func TestTrainPanicsOnBadTarget(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size target did not panic")
		}
	}()
	m.Train([]float64{1, 2}, []float64{1, 2}, 0.1, 0)
}

func TestFitConvergence(t *testing.T) {
	// An easy target should trigger the patience-based convergence
	// criterion well before MaxEras.
	m, _ := NewMLP(xrand.New(13), 1, 2, 1)
	train := Samples{In: 1, Out: 1}
	test := Samples{In: 1, Out: 1}
	for i := 0; i < 32; i++ {
		x := float64(i) / 32
		if i%4 == 0 {
			test.Rows = append(test.Rows, x, 0.5*x)
		} else {
			train.Rows = append(train.Rows, x, 0.5*x)
		}
	}
	res := m.Fit(train, test, TrainConfig{MaxEras: 2000})
	if !res.Converged {
		t.Fatalf("training did not converge in %d eras (test loss %v)", res.Eras, res.TestLoss)
	}
	if res.Eras >= 2000 {
		t.Fatal("convergence flag set but all eras used")
	}
}

func TestFitEmptyTrainSet(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 1, 1, 1)
	res := m.Fit(Samples{}, Samples{}, TrainConfig{})
	if res.Eras != 0 || res.Converged {
		t.Fatalf("empty fit result = %+v", res)
	}
}

func TestLossEmpty(t *testing.T) {
	m, _ := NewMLP(xrand.New(1), 1, 1, 1)
	if m.Loss(Samples{}) != 0 {
		t.Fatal("Loss of no samples should be 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewMLP(xrand.New(17), 2, 3, 1)
	in := []float64{0.4, -0.1}
	before := m.Forward(in)[0]
	c := m.Clone()
	// Training the clone must not affect the original.
	for i := 0; i < 100; i++ {
		c.Train(in, []float64{2}, 0.1, 0.5)
	}
	after := m.Forward(in)[0]
	if before != after {
		t.Fatal("training the clone changed the original")
	}
	if c.Forward(in)[0] == before {
		t.Fatal("clone did not learn")
	}
}

func BenchmarkForward631(b *testing.B) {
	m, _ := NewMLP(xrand.New(1), 6, 3, 1)
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forward(in)
	}
}

func BenchmarkTrain631(b *testing.B) {
	m, _ := NewMLP(xrand.New(1), 6, 3, 1)
	in := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	target := []float64{0.35}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Train(in, target, 0.05, 0.5)
	}
}
