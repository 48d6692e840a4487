package main

import (
	"sort"
	"time"

	"mmogdc/internal/obs"
)

// perLayer lists every per-layer metric in report order. A traced run
// reports all of them; a metric whose layer does not run on the
// workload reads 0 and is listed as n/a in the text output.
var perLayer = []struct{ name, unit string }{
	{"trace.generate_s", "s"},
	{"neural.pretrain_s", "s"},
	{"neural.eras", "count"},
	{"predict.calls", "count"},
	{"predict.busy_s", "s"},
	{"predict.ns_per_call", "ns"},
	{"core.tick_p50_us", "us"},
	{"core.tick_p99_us", "us"},
	{"core.observe_s", "s"},
	{"core.observe_self_s", "s"},
	{"core.reduce_s", "s"},
	{"core.acquire_s", "s"},
	{"par.helper_share", "ratio"},
	{"par.helper_skips", "count"},
	{"par.efficiency", "ratio"},
	{"ecosystem.allocate_calls", "count"},
	{"ecosystem.allocate_busy_s", "s"},
	{"ecosystem.allocate_p99_us", "us"},
	{"ecosystem.failover_calls", "count"},
	{"ecosystem.retry_calls", "count"},
	{"ecosystem.grant_ratio", "ratio"},
	{"ecosystem.decisions_recorded", "count"},
	{"datacenter.leases_granted", "count"},
	{"datacenter.live_leases_end", "count"},
	{"obs.events_recorded", "count"},
	{"obs.events_dropped", "count"},
	{"obs.spans_dropped", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"checkpoint.count", "count"},
	{"checkpoint.bytes_mean", "B"},
	{"checkpoint.encode_us_mean", "us"},
	{"checkpoint.write_us_mean", "us"},
	{"operator.observe_calls", "count"},
	{"operator.observe_p50_us", "us"},
	{"operator.observe_p99_us", "us"},
	{"daemon.request_p50_us", "us"},
	{"daemon.request_p99_us", "us"},
	{"daemon.queue_wait_p50_ms", "ms"},
	{"daemon.queue_wait_p99_ms", "ms"},
	{"daemon.queue_depth_max", "count"},
	{"daemon.shed", "count"},
	{"daemon.timeouts", "count"},
	{"daemon.read_p99_us", "us"},
	{"load.lateness_p99_ms", "ms"},
	{"load.sent", "count"},
	{"load.accepted", "count"},
}

// layerSet collects the per-layer values one traced run measured.
type layerSet map[string]float64

// pct sets name to the p-percentile of xs scaled by scale, when xs has
// enough samples beyond it; it logs the sample count either way.
func (ls layerSet) pct(rep *report, name string, xs []float64, p, scale float64) {
	v, beyond := quantile(xs, p)
	if beyond < minBeyond {
		rep.logf("%s: n/a (%d samples, %d beyond p%g; need %d)", name, len(xs), beyond, p*100, minBeyond)
		return
	}
	rep.logf("%s: %d samples, %d beyond", name, len(xs), beyond)
	ls[name] = v * scale
}

// emit adds every per-layer metric to rep in perLayer order.
func (ls layerSet) emit(rep *report) {
	var na []string
	for _, m := range perLayer {
		v, ok := ls[m.name]
		if !ok {
			na = append(na, m.name)
		}
		rep.add(m.name, m.unit, v)
	}
	if len(na) > 0 {
		rep.logf("n/a on this workload (reported as 0): %v", na)
	}
}

// ival is one span's interval with its layer's precedence rank.
type ival struct {
	start, end time.Time
	rank       int
}

// exclusive attributes wall time to layers. At every instant, the time
// goes to the highest-ranked layer with a span open then, so nested
// spans yield the usual self time (duration minus the part its child
// spans cover) and overlapping spans of one layer count once. self[r]
// is rank r's attributed time; covered is the union of all intervals,
// the sum of self.
func exclusive(ivs []ival, ranks int) (self []time.Duration, covered time.Duration) {
	self = make([]time.Duration, ranks)
	if len(ivs) == 0 {
		return self, 0
	}
	type edge struct {
		at   time.Time
		rank int
		d    int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		if !iv.end.After(iv.start) {
			continue
		}
		edges = append(edges, edge{iv.start, iv.rank, +1}, edge{iv.end, iv.rank, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	open := make([]int, ranks)
	for i, e := range edges {
		if i > 0 {
			if dt := e.at.Sub(edges[i-1].at); dt > 0 {
				for r := ranks - 1; r >= 0; r-- {
					if open[r] > 0 {
						self[r] += dt
						covered += dt
						break
					}
				}
			}
		}
		open[e.rank] += e.d
	}
	return self, covered
}

// spanDurations returns the durations, in seconds, of the complete
// spans named name.
func spanDurations(recs []obs.SpanRec, names ...string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Phase != obs.PhaseSpan {
			continue
		}
		for _, n := range names {
			if r.Name == n {
				out = append(out, r.End.Sub(r.Start).Seconds())
				break
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// budgetRow is one line of a traced run's wall-time budget.
type budgetRow struct {
	layer string
	self  time.Duration
}

// printBudget prints each layer's self time and share of wall, plus
// the unattributed remainder, and checks that they add up to wall.
func printBudget(rep *report, wall time.Duration, rows []budgetRow) {
	var total time.Duration
	rep.logf("wall-time budget of the traced run (%.3fs):", wall.Seconds())
	for _, r := range rows {
		total += r.self
		rep.logf("  %-16s %10.4fs %6.2f%%", r.layer, r.self.Seconds(), 100*r.self.Seconds()/wall.Seconds())
	}
	rest := wall - total
	rep.logf("  %-16s %10.4fs %6.2f%%", "unattributed", rest.Seconds(), 100*rest.Seconds()/wall.Seconds())
	rep.check(rest >= -time.Millisecond, "layer self times (%v) exceed the traced wall time (%v)", total, wall)
}
