package neural

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/xrand"
)

// refSample is one example as its own pair of heap slices, the layout
// referenceFit trains from.
type refSample struct{ in, target []float64 }

func refSamples(s Samples) []refSample {
	out := make([]refSample, s.Len())
	for r := range out {
		in, target := s.Row(r)
		out[r] = refSample{append([]float64(nil), in...), append([]float64(nil), target...)}
	}
	return out
}

// referenceFit is Fit trained one heap-allocated sample at a time
// through an index slice that is reshuffled in place before each era:
// the straightforward form the arena, the flat weights and the
// pipelined shuffle must reproduce bit for bit.
func referenceFit(m *MLP, train, test []refSample, cfg TrainConfig) TrainResult {
	c := cfg.withDefaults()
	res := TrainResult{}
	if len(train) == 0 {
		return res
	}
	var shuffler *xrand.Rand
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	if c.ShuffleSeed != 0 {
		shuffler = xrand.New(c.ShuffleSeed)
	}
	loss := func(samples []refSample) float64 {
		var total float64
		for _, s := range samples {
			out := m.Forward(s.in)
			for j := range out {
				d := out[j] - s.target[j]
				total += d * d
			}
		}
		return total / float64(len(samples))
	}
	best := math.Inf(1)
	bad := 0
	for era := 0; era < c.MaxEras; era++ {
		if shuffler != nil {
			shuffler.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		lr := c.LearningRate / (1 + c.LRDecay*float64(era))
		var trainLoss float64
		for _, idx := range order {
			s := train[idx]
			trainLoss += m.TrainClipped(s.in, s.target, lr, c.Momentum, c.ErrorClip)
		}
		trainLoss /= float64(len(train))
		testLoss := trainLoss
		if len(test) > 0 {
			testLoss = loss(test)
		}
		res.Eras = era + 1
		res.TrainLoss = trainLoss
		res.TestLoss = testLoss
		if testLoss < best*(1-c.MinImprovement) {
			best = testLoss
			bad = 0
		} else {
			bad++
			if bad >= c.Patience {
				res.Converged = true
				break
			}
		}
	}
	return res
}

// TestFitMatchesPerSampleReference pins Fit to referenceFit over seeded
// random networks, data and training configs: the same TrainResult and
// the same snapshot bytes. MaxEras 1, 2, 3 and 7 walk the shuffle
// helper through one, two, three and several buffer hand-offs; a
// MinImprovement of 1 makes every era a bad one, so training converges
// after Patience eras and stops the helper early. After every Fit no
// helper goroutine may be left running.
func TestFitMatchesPerSampleReference(t *testing.T) {
	r := xrand.New(2024)
	for _, maxEras := range []int{1, 2, 3, 7} {
		for _, shuffle := range []bool{false, true} {
			for _, early := range []bool{false, true} {
				for _, withTest := range []bool{false, true} {
					name := fmt.Sprintf("eras=%d/shuffle=%v/early=%v/test=%v", maxEras, shuffle, early, withTest)
					t.Run(name, func(t *testing.T) {
						sizes := []int{1 + r.Intn(7), 1 + r.Intn(5), 1 + r.Intn(2)}
						in, out := sizes[0], sizes[2]
						rows := 1 + r.Intn(3000)
						data := NewSamples(in, out, rows)
						for i := range data.Rows {
							data.Rows[i] = r.Norm(0, 1)
						}
						split := rows
						if withTest {
							split = (rows + 1) / 2
						}
						train, test := data.Split(split)
						cfg := TrainConfig{
							LearningRate: 0.001 + 0.05*r.Float64(),
							Momentum:     0.9 * r.Float64(),
							MaxEras:      maxEras,
							Patience:     maxEras,
							LRDecay:      0.1 * r.Float64(),
						}
						if r.Float64() < 0.5 {
							cfg.ErrorClip = 0.1 + r.Float64()
						}
						if shuffle {
							cfg.ShuffleSeed = 1 + r.Uint64()
						}
						if early {
							cfg.MinImprovement = 1
							cfg.Patience = 1 + r.Intn(3)
						}
						seed := 1 + r.Uint64()
						want, _ := NewMLP(xrand.New(seed), sizes...)
						got, _ := NewMLP(xrand.New(seed), sizes...)
						goroutines := runtime.NumGoroutine()

						wantRes := referenceFit(want, refSamples(train), refSamples(test), cfg)
						gotRes := got.Fit(train, test, cfg)
						if gotRes != wantRes {
							t.Fatalf("Fit = %+v, reference %+v", gotRes, wantRes)
						}
						if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
							t.Fatal("trained weights differ from the reference")
						}
						if early && maxEras > cfg.Patience && (!gotRes.Converged || gotRes.Eras != cfg.Patience) {
							t.Fatalf("early-stop config ran %d eras, converged %v", gotRes.Eras, gotRes.Converged)
						}
						waitGoroutines(t, goroutines)
					})
				}
			}
		}
	}
}

// waitGoroutines fails unless the goroutine count falls back to base
// within a second: an exited goroutine can take a moment to leave the
// count.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFitPermutesTrainRows checks the one side effect Fit documents:
// with a ShuffleSeed the training rows come back as a permutation of
// the original ones, and the test rows are untouched.
func TestFitPermutesTrainRows(t *testing.T) {
	data := Samples{In: 1, Out: 1}
	for i := 0; i < 10; i++ {
		data.Rows = append(data.Rows, float64(i), float64(10*i))
	}
	before := append([]float64(nil), data.Rows...)
	train, test := data.Split(7)
	m, _ := NewMLP(xrand.New(1), 1, 2, 1)
	m.Fit(train, test, TrainConfig{MaxEras: 4, Patience: 4, ShuffleSeed: 3})
	seen := map[float64]bool{}
	for r := 0; r < train.Len(); r++ {
		in, target := train.Row(r)
		if target[0] != 10*in[0] || seen[in[0]] {
			t.Fatalf("row %d = (%v, %v) is not one of the original rows", r, in[0], target[0])
		}
		seen[in[0]] = true
	}
	if !slices.Equal(test.Rows, before[len(train.Rows):]) {
		t.Fatal("Fit changed the test rows")
	}
}
