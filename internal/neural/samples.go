package neural

import "mmogdc/internal/xrand"

// Samples is a set of supervised examples in one contiguous row-major
// arena: row r is Rows[r*(In+Out) : (r+1)*(In+Out)], its In inputs
// followed by its Out targets. Training walks the arena in sequence,
// so an era streams through memory instead of chasing one heap record
// per example.
type Samples struct {
	In, Out int
	Rows    []float64
}

// NewSamples returns n zeroed rows of in inputs and out targets, to be
// filled in place through Row.
func NewSamples(in, out, n int) Samples {
	return Samples{In: in, Out: out, Rows: make([]float64, n*(in+out))}
}

// Len returns the number of whole rows.
func (s Samples) Len() int {
	if w := s.In + s.Out; w > 0 {
		return len(s.Rows) / w
	}
	return 0
}

// Row returns row r's inputs and targets. Both alias the arena.
func (s Samples) Row(r int) (in, target []float64) {
	w := s.In + s.Out
	row := s.Rows[r*w : (r+1)*w : (r+1)*w]
	return row[:s.In], row[s.In:]
}

// Split returns rows [0, k) and [k, Len()) as two sets over the same
// arena.
func (s Samples) Split(k int) (head, tail Samples) {
	cut := k * (s.In + s.Out)
	head, tail = s, s
	head.Rows = s.Rows[:cut:cut]
	tail.Rows = s.Rows[cut:]
	return head, tail
}

// eraShuffler builds each era's shuffled copy of the training rows on a
// helper goroutine, one era ahead of training. Two buffers alternate:
// the training set's own rows and one spare. The helper gathers era
// e+1 from era e's buffer, which training only reads, into the other
// one. Its hand-off is unbuffered, so sending era e+1 completes only
// when training takes it, that is after training finished era e; only
// then does the helper start to overwrite era e's buffer with era e+2.
//
// Era e's rows are those of the training set permuted by the first e+1
// rounds of r.Shuffle, with the very swap sequence a per-era shuffle of
// an index slice would see, so training sees the same samples in the
// same order as indexing through that slice.
type eraShuffler struct {
	eras   chan []float64
	quit   chan struct{}
	exited chan struct{}
}

// shuffleEras starts the helper for up to eras eras of train.
func shuffleEras(train Samples, r *xrand.Rand, eras int) *eraShuffler {
	s := &eraShuffler{
		eras:   make(chan []float64),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go s.run(train, r, eras)
	return s
}

func (s *eraShuffler) run(train Samples, r *xrand.Rand, eras int) {
	defer close(s.exited)
	n, w := train.Len(), train.In+train.Out
	src, dst := train.Rows[:n*w], make([]float64, n*w)
	perm := make([]int, n)
	for era := 0; era < eras; era++ {
		// Permuting an identity with this era's swaps gives, for each
		// position, where the row that lands there sat last era.
		for i := range perm {
			perm[i] = i
		}
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, k := range perm {
			copy(dst[i*w:(i+1)*w], src[k*w:(k+1)*w])
		}
		select {
		case s.eras <- dst:
		case <-s.quit:
			return
		}
		src, dst = dst, src
	}
}

// next returns the next era's rows, waiting for the helper to finish
// them. They stay valid until the following call.
func (s *eraShuffler) next() []float64 { return <-s.eras }

// stop ends the helper and waits for it to exit, so it never writes a
// buffer after Fit returns.
func (s *eraShuffler) stop() {
	close(s.quit)
	<-s.exited
}
