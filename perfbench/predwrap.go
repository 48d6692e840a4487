package main

import (
	"sync"
	"time"

	"mmogdc/internal/predict"
)

// predStats times every Observe and Predict call of the predictors a
// wrapped factory builds. Each predictor keeps its own counters (one
// zone's predictor is driven by one worker at a time), summed by
// total after the run.
type predStats struct {
	mu    sync.Mutex
	preds []*timedPredictor
}

// wrap returns a factory building timed predictors around f's. The
// wrapper forwards predict.Stateful, so checkpoints keep working.
func (s *predStats) wrap(f predict.Factory) predict.Factory {
	return func() predict.Predictor {
		tp := &timedPredictor{inner: f()}
		s.mu.Lock()
		s.preds = append(s.preds, tp)
		s.mu.Unlock()
		if st, ok := tp.inner.(predict.Stateful); ok {
			return &timedStateful{timedPredictor: tp, st: st}
		}
		return tp
	}
}

// total returns the calls made and the time spent in them.
func (s *predStats) total() (calls int64, busy time.Duration) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.preds {
		calls += p.calls
		busy += p.busy
	}
	return calls, busy
}

type timedPredictor struct {
	inner predict.Predictor
	calls int64
	busy  time.Duration
}

func (p *timedPredictor) Name() string { return p.inner.Name() }

func (p *timedPredictor) Observe(v float64) {
	t0 := time.Now()
	p.inner.Observe(v)
	p.busy += time.Since(t0)
	p.calls++
}

func (p *timedPredictor) Predict() float64 {
	t0 := time.Now()
	v := p.inner.Predict()
	p.busy += time.Since(t0)
	p.calls++
	return v
}

// timedStateful is a timedPredictor whose inner predictor can be
// checkpointed.
type timedStateful struct {
	*timedPredictor
	st predict.Stateful
}

func (p *timedStateful) Snapshot() []byte          { return p.st.Snapshot() }
func (p *timedStateful) Restore(data []byte) error { return p.st.Restore(data) }
