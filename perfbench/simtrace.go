package main

import (
	"time"

	"mmogdc/internal/obs"
)

// Sim span layers in precedence order (see exclusive).
const (
	rankTick       = iota // tick, bootstrap: core's own per-tick work
	rankObserve           // phase.observe: gaps between zone spans (fork/join, span bookkeeping)
	rankReduce            // phase.reduce
	rankAcquire           // phase.acquire: brownout and failover bookkeeping
	rankCheckpoint        // checkpoint.encode, checkpoint.write
	rankZone              // predict: one zone's observe-phase work
	rankAlloc             // acquire, acquire.failover, acquire.retry
	simRanks
)

var simSpanRank = map[string]int{
	"tick": rankTick, "bootstrap": rankTick,
	"phase.observe": rankObserve, "phase.reduce": rankReduce, "phase.acquire": rankAcquire,
	"checkpoint.encode": rankCheckpoint, "checkpoint.write": rankCheckpoint,
	"predict": rankZone,
	"acquire": rankAlloc, "acquire.failover": rankAlloc, "acquire.retry": rankAlloc,
}

// runSimTraced alternates untraced and traced runs for o.seconds. The
// traced run must produce the untraced run's Result and drop nothing;
// its spans give the per-layer metrics.
func runSimTraced(o opts, rep *report, w simSpec, in *simInputs) error {
	recCap := obs.DefaultRecorderCapacity
	var plain, traced []float64
	var last *simRun
	var digest string
	deadline := time.Now().Add(o.seconds)
	for len(traced) == 0 || time.Now().Before(deadline) {
		rep.attempted++
		u, err := w.runOnce(o, in, 0, false, 0)
		if err != nil {
			rep.failed++
			rep.fail("core.Run: %v", err)
			return nil
		}
		if digest == "" {
			digest = resultDigest(u.res)
		}
		rep.check(resultDigest(u.res) == digest, "untraced run: Result differs from the first run")
		if n := int(u.obs.Rec().Total()); n > recCap {
			recCap = n
		}
		plain = append(plain, u.cost.wall.Seconds())

		// The recorder ring is sized to the run's event count, known
		// after one run; a first traced run that overflows it only
		// sizes the next one.
		last = nil // release the previous traced run's spans first
		var t *simRun
		for attempt := 0; attempt < 2; attempt++ {
			rep.attempted++
			if t, err = w.runOnce(o, in, 0, true, recCap); err != nil {
				rep.failed++
				rep.fail("traced core.Run: %v", err)
				return nil
			}
			if t.obs.Recorder.Dropped() == 0 {
				break
			}
			recCap = int(t.obs.Recorder.Total())
			rep.logf("recorder ring resized to %d events", recCap)
		}
		rep.check(resultDigest(t.res) == digest, "traced run: Result differs from the untraced run (write-only telemetry)")
		traced = append(traced, t.cost.wall.Seconds())
		last = t
	}
	ls, budget := simLayers(rep, in, last)
	printBudget(rep, last.cost.wall, budget)
	ls["obs.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	rep.logf("trace overhead: traced %.3fs vs untraced %.3fs (medians of %d and %d runs)",
		median(traced), median(plain), len(traced), len(plain))
	rep.check(ls["obs.events_dropped"] == 0 && ls["obs.spans_dropped"] == 0,
		"traced run dropped %v events and %v spans", ls["obs.events_dropped"], ls["obs.spans_dropped"])
	ls.emit(rep)
	return nil
}

// simLayers derives the per-layer metrics and the wall-time budget of
// one traced sim run.
func simLayers(rep *report, in *simInputs, r *simRun) (layerSet, []budgetRow) {
	ls := layerSet{}
	recs := r.obs.Tracer.Records()

	ls["trace.generate_s"] = in.genTime.Seconds()
	if in.train.Eras > 0 {
		ls["neural.pretrain_s"] = in.trainTime.Seconds()
		ls["neural.eras"] = float64(in.train.Eras)
	}
	calls, busy := r.pred.total()
	ls["predict.calls"] = float64(calls)
	ls["predict.busy_s"] = busy.Seconds()
	if calls > 0 {
		ls["predict.ns_per_call"] = float64(busy.Nanoseconds()) / float64(calls)
	}

	// Wall-time attribution.
	ivs := make([]ival, 0, len(recs))
	for _, s := range recs {
		if rank, ok := simSpanRank[s.Name]; ok && s.Phase == obs.PhaseSpan {
			ivs = append(ivs, ival{s.Start, s.End, rank})
		}
	}
	self, _ := exclusive(ivs, simRanks)
	zoneBusy := sum(spanDurations(recs, "predict"))
	predShare := 0.0
	if zoneBusy > 0 {
		predShare = busy.Seconds() / zoneBusy
	}
	predWall := time.Duration(float64(self[rankZone]) * predShare)
	budget := []budgetRow{
		{"predict", predWall},
		{"core.observe", self[rankZone] - predWall},
		{"observe.gaps", self[rankObserve]},
		{"core.reduce", self[rankReduce]},
		{"core.acquire", self[rankAcquire]},
		{"ecosystem", self[rankAlloc]},
		{"checkpoint", self[rankCheckpoint]},
		{"core.tick", self[rankTick]},
	}

	ticks := spanDurations(recs, "tick")
	ls.pct(rep, "core.tick_p50_us", ticks, 0.50, 1e6)
	ls.pct(rep, "core.tick_p99_us", ticks, 0.99, 1e6)
	observe := sum(spanDurations(recs, "phase.observe"))
	ls["core.observe_s"] = observe
	ls["core.observe_self_s"] = observe - predWall.Seconds()
	ls["core.reduce_s"] = sum(spanDurations(recs, "phase.reduce"))
	ls["core.acquire_s"] = sum(spanDurations(recs, "phase.acquire"))

	reg := r.obs.Registry
	caller := reg.Counter("mmogdc_pool_indices_total", "", obs.L("executor", "caller")).Value()
	helper := reg.Counter("mmogdc_pool_indices_total", "", obs.L("executor", "helper")).Value()
	if caller+helper > 0 {
		ls["par.helper_share"] = float64(helper) / float64(caller+helper)
	}
	ls["par.helper_skips"] = float64(reg.Counter("mmogdc_pool_helper_skips_total", "").Value())
	if observe > 0 {
		ls["par.efficiency"] = zoneBusy / (float64(r.workers) * observe)
	}

	allocs := spanDurations(recs, "acquire", "acquire.failover", "acquire.retry")
	ls["ecosystem.allocate_calls"] = float64(len(allocs))
	ls["ecosystem.allocate_busy_s"] = sum(allocs)
	ls.pct(rep, "ecosystem.allocate_p99_us", allocs, 0.99, 1e6)
	ls["ecosystem.failover_calls"] = float64(len(spanDurations(recs, "acquire.failover")))
	ls["ecosystem.retry_calls"] = float64(len(spanDurations(recs, "acquire.retry")))
	grants := reg.Counter("mmogdc_grants_total", "").Value()
	if len(allocs) > 0 {
		ls["ecosystem.grant_ratio"] = float64(grants) / float64(len(allocs))
	}
	decisions := 0
	for _, e := range r.obs.Recorder.Events() {
		if e.Kind == obs.EventDecision {
			decisions++
		}
	}
	ls["ecosystem.decisions_recorded"] = float64(decisions)

	ls["datacenter.leases_granted"] = float64(reg.Counter("mmogdc_grant_leases_total", "").Value())
	live := 0
	for _, c := range r.centers {
		live += c.ActiveLeases()
	}
	ls["datacenter.live_leases_end"] = float64(live)

	ls["obs.events_recorded"] = float64(r.obs.Recorder.Total())
	ls["obs.events_dropped"] = float64(r.obs.Recorder.Dropped())
	ls["obs.spans_dropped"] = float64(r.obs.Tracer.Dropped())

	if n := reg.Counter("mmogdc_checkpoint_writes_total", "").Value(); n > 0 {
		ls["checkpoint.count"] = float64(n)
		enc := spanDurations(recs, "checkpoint.encode")
		ls["checkpoint.encode_us_mean"] = mean(enc) * 1e6
		ls["checkpoint.write_us_mean"] = mean(spanDurations(recs, "checkpoint.write")) * 1e6
		var bytes []float64
		for _, s := range recs {
			if s.Name == "checkpoint.write" {
				bytes = append(bytes, s.Value)
			}
		}
		ls["checkpoint.bytes_mean"] = mean(bytes)
	}
	return ls, budget
}
