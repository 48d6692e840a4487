package main

import (
	"net/http"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, beyond := quantile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, ok := percentile(xs, 0.99); !ok {
		t.Fatal("p99 of 1,000 samples has 10 beyond and must be reportable")
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond and must not be reportable")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (ok %v), want 10", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond and must not be reportable")
	}
	if _, beyond := quantile(nil, 0.5); beyond != 0 {
		t.Fatal("empty input must have nothing beyond")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// fakeClock advances only when slept on or when a request "takes"
// time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	// 100 req/s: due every 10ms. Request 1 stalls for 35ms; the others
	// take 1ms.
	took := []time.Duration{time.Millisecond, 35 * time.Millisecond, time.Millisecond,
		time.Millisecond, time.Millisecond, time.Millisecond}
	shots := openLoop(c, start, 100, len(took), func(i int) int {
		c.now = c.now.Add(took[i])
		return http.StatusAccepted
	})
	want := []struct{ late, rtt time.Duration }{
		{0, 1 * time.Millisecond},
		{0, 35 * time.Millisecond},
		// Due at 20ms, sent at 45ms when request 1 returned: the stall
		// it waited through counts in its RTT.
		{25 * time.Millisecond, 26 * time.Millisecond},
		// Due at 30ms, sent at 46ms.
		{16 * time.Millisecond, 17 * time.Millisecond},
		// Due at 40ms, sent at 47ms.
		{7 * time.Millisecond, 8 * time.Millisecond},
		// Due at 50ms: the generator caught up and slept until due.
		{0, 1 * time.Millisecond},
	}
	for i, w := range want {
		if shots[i].late != w.late || shots[i].rtt != w.rtt || shots[i].status != http.StatusAccepted {
			t.Errorf("request %d: late %v rtt %v, want late %v rtt %v", i, shots[i].late, shots[i].rtt, w.late, w.rtt)
		}
	}
}

func TestClosedLoopCountsPerWindow(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	// Each request takes 10ms; every third is shed. 100ms in 2 windows.
	ok, statuses := closedLoop(c, 100*time.Millisecond, 2, func(i int) int {
		c.now = c.now.Add(10 * time.Millisecond)
		if i%3 == 2 {
			return http.StatusTooManyRequests
		}
		return http.StatusAccepted
	})
	if len(statuses) != 10 {
		t.Fatalf("sent %d requests in 100ms at 10ms each, want 10", len(statuses))
	}
	// Requests start at 0,10,...,90ms: 0-4 in window 0, 5-9 in window 1;
	// shed are 2, 5 and 8.
	if ok[0] != 4 || ok[1] != 3 {
		t.Fatalf("accepted per window = %v, want [4 3]", ok)
	}
}

func TestMaxOKRatePassRule(t *testing.T) {
	fast := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 2
		}
		return xs
	}
	good := func(rate float64) rung { return rung{rate: rate, rttMS: fast(1000), drained: true} }
	slowTail := good(4000)
	for i := 0; i < 11; i++ {
		slowTail.rttMS[i] = 80 // 11 samples over the limit: p99 is over it
	}
	cases := []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{good(1000), good(1500), good(2250)}, 2250},
		{"slow tail ends the ladder", []rung{good(1000), good(2000), slowTail, good(8000)}, 2000},
		{"one shed fails", []rung{good(1000), func() rung { r := good(2000); r.shed = 1; return r }()}, 1000},
		{"one failure fails", []rung{good(1000), func() rung { r := good(2000); r.failed = 1; return r }()}, 1000},
		{"backlog fails", []rung{good(1000), func() rung { r := good(2000); r.drained = false; return r }()}, 1000},
		{"too few samples fail", []rung{good(1000), {rate: 2000, rttMS: fast(999), drained: true}}, 1000},
		{"first rung fails", []rung{func() rung { r := good(1000); r.shed = 3; return r }(), good(2000)}, 0},
	}
	for _, tc := range cases {
		if got := maxOKRate(tc.rungs); got != tc.want {
			t.Errorf("%s: maxOKRate = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Exactly 10 samples over the limit leave p99 within it.
	edge := good(3000)
	for i := 0; i < 10; i++ {
		edge.rttMS[i] = 80
	}
	if !edge.passes() {
		t.Error("a rung with 10 of 1,000 samples over the limit has p99 within it and must pass")
	}
}

func TestExclusiveSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	const (
		parent = iota
		child
		grandchild
		ranks
	)
	ivs := []ival{
		// A parent span 0-100 with two children 10-30 and 50-90, the
		// second holding a grandchild 60-70.
		{at(0), at(100), parent},
		{at(10), at(30), child},
		{at(50), at(90), child},
		{at(60), at(70), grandchild},
		// Two overlapping children of a second parent 200-300 (parallel
		// workers): their union 210-260 counts once.
		{at(200), at(300), parent},
		{at(210), at(250), child},
		{at(220), at(260), child},
		// An empty span is ignored.
		{at(400), at(400), child},
	}
	self, covered := exclusive(ivs, ranks)
	want := []time.Duration{
		(100 - 20 - 40 + 100 - 50) * time.Millisecond, // parents minus children
		(20 + 40 - 10 + 50) * time.Millisecond,        // children minus grandchild, union counted once
		10 * time.Millisecond,
	}
	for r := range want {
		if self[r] != want[r] {
			t.Errorf("rank %d self = %v, want %v", r, self[r], want[r])
		}
	}
	if covered != 200*time.Millisecond {
		t.Errorf("covered = %v, want 200ms (the two parents; the gap between them is not covered)", covered)
	}
}
