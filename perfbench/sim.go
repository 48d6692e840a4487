package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/mmog"
	"mmogdc/internal/neural"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// setupRepeats is how many times a run sets up its inputs; setup_s is
// the median.
const setupRepeats = 3

// simInputs are the generated inputs of one sim workload, shared by
// every run of it (core.Run never mutates them).
type simInputs struct {
	ds *trace.Dataset
	// factory builds the per-zone predictors.
	factory predict.Factory
	// train is the pretraining outcome (sim-paper only).
	train neural.TrainResult
	// fault is the fault injector's base seed (sim-chaos only).
	fault uint64
	// genTime and trainTime are the set-up's trace generation and
	// pretraining wall times.
	genTime, trainTime time.Duration
}

// simSpec describes one simulator workload.
type simSpec struct {
	name    string
	workers int
	// inputs generates the trace (and other per-seed inputs) into in.
	inputs func(s seeds, in *simInputs)
	// model builds the predictor factory into in; it reads only
	// s.pretrain, never the trace seed.
	model func(s seeds, in *simInputs)
	// config builds a fresh configuration for run variant v (centers
	// and predictors are stateful, so every run needs its own). ckptDir
	// is empty when the workload writes no checkpoints.
	config func(in *simInputs, f predict.Factory, ckptDir string, v int) core.Config
	// variants is how many input variants the runs of one invocation
	// cycle through; the metrics are medians over all of them.
	variants int
	// checkpoints reports whether runs need a checkpoint directory.
	checkpoints bool
}

// generate times one trace.Generate call.
func generate(cfg trace.Config, into *time.Duration) *trace.Dataset {
	t0 := time.Now()
	ds := trace.Generate(cfg)
	*into += time.Since(t0)
	return ds
}

// paperCenters is the Table III ecosystem with HP-1/HP-2, the
// cmd/mmogsim default.
func paperCenters() []*datacenter.Center {
	hp1, _ := datacenter.PolicyByName("HP-1")
	hp2, _ := datacenter.PolicyByName("HP-2")
	return datacenter.BuildCenters(datacenter.TableIIISites(), []datacenter.HostingPolicy{hp1, hp2})
}

// simPaper is cmd/mmogsim's default study: one O(n^2) MMORPG over a
// four-day trace, the neural predictor pretrained on a two-day shadow
// trace, Table III centers with HP-1/HP-2.
var simPaper = simSpec{
	name:    "sim-paper",
	workers: 2,
	inputs: func(s seeds, in *simInputs) {
		in.ds = generate(trace.Config{Seed: s.trace, Days: 4}, &in.genTime)
	},
	model: func(s seeds, in *simInputs) {
		in.factory, in.train = pretrain(s.pretrain, &in.genTime, &in.trainTime)
	},
	variants: 1,
	config: func(in *simInputs, f predict.Factory, _ string, _ int) core.Config {
		game := mmog.NewGame("mmogsim", mmog.GenreMMORPG)
		game.Update = mmog.UpdateQuadratic
		return core.Config{
			Centers:   paperCenters(),
			Workloads: []core.Workload{{Game: game, Dataset: in.ds, Predictor: f}},
			Workers:   2,
		}
	},
}

// pretrain reproduces cmd/mmogsim's neural set-up for seed p: a
// two-day shadow trace (seed p+1) and PretrainShared with the paper's
// network (init seed p+3) and training (shuffle seed p+2) settings.
func pretrain(p uint64, genTime, trainTime *time.Duration) (predict.Factory, neural.TrainResult) {
	shadow := generate(trace.Config{Seed: p + 1, Days: 2}, genTime)
	collected := make([][]float64, len(shadow.Groups))
	for i, g := range shadow.Groups {
		collected[i] = g.Load.Values
	}
	t0 := time.Now()
	f, res := predict.PretrainShared(predict.PaperNeuralConfig(p+3), collected, 0.8, predict.PaperTrainConfig(p+2))
	*trainTime += time.Since(t0)
	return f, res
}

// chaosGames are the Table VII update models sharing one ecosystem.
// B and C get latency bounds, so the matcher filters by latency class
// and a rejection can leave demand unmet, which exercises the retry
// backoff.
func chaosGames() []*mmog.Game {
	return []*mmog.Game{
		{Name: "MMOG A", Update: mmog.UpdateNLogN, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
		{Name: "MMOG B", Update: mmog.UpdateQuadratic, LatencyKm: 4000, Profile: mmog.DefaultProfile},
		{Name: "MMOG C", Update: mmog.UpdateQuadraticLog, LatencyKm: 2000, Profile: mmog.DefaultProfile},
	}
}

// simChaos runs three games over a four-day trace through every fault
// the injector has, with storm control, brownout, per-center
// accounting, telemetry, provenance and checkpoints on, sequentially.
var simChaos = simSpec{
	name:    "sim-chaos",
	workers: 1,
	inputs: func(s seeds, in *simInputs) {
		in.ds = generate(trace.Config{Seed: s.trace, Days: 4}, &in.genTime)
		in.fault = s.fault
	},
	model:       func(_ seeds, in *simInputs) { in.factory = predict.NewLastValue() },
	checkpoints: true,
	// The fault pattern changes the work per zone-tick by up to ±15%
	// from one seed to the next; cycling through twelve fault seeds per
	// invocation measures their typical cost instead of one pattern's.
	variants: 12,
	config: func(in *simInputs, f predict.Factory, ckptDir string, v int) core.Config {
		games := chaosGames()
		parts := make([][]*trace.Group, len(games))
		for i, g := range in.ds.Groups {
			parts[i%len(games)] = append(parts[i%len(games)], g)
		}
		var wl []core.Workload
		for i, g := range games {
			wl = append(wl, core.Workload{Game: g, Predictor: f, Dataset: &trace.Dataset{
				Config: in.ds.Config, Regions: in.ds.Regions, Groups: parts[i],
			}})
		}
		return core.Config{
			Centers:   paperCenters(),
			Workloads: wl,
			Workers:   1,
			Faults: &faults.Config{
				Seed:             variantSeed(in.fault, v),
				MTBFTicks:        400,
				MTTRTicks:        15,
				DegradedShare:    0.5,
				RejectProb:       0.02,
				PartialGrantProb: 0.05,
				DropoutProb:      0.01,
				RegionMTBFTicks:  900,
				RegionMTTRTicks:  12,
			},
			FailoverBudgetPerTick: 8,
			Brownout:              true,
			BrownoutReserveFrac:   0.1,
			TrackCenters:          true,
			Obs:                   obs.New(),
			Provenance:            4096,
			CheckpointDir:         ckptDir,
		}
	},
}

// variantSeed derives variant v's seed from base; variant 0 is base
// itself.
func variantSeed(base uint64, v int) uint64 { return base + uint64(v)<<32 }

func runSimPaper(o opts, rep *report) error { return runSim(o, rep, simPaper) }

func runSimChaos(o opts, rep *report) error { return runSim(o, rep, simChaos) }

// simRun is one measured core.Run.
type simRun struct {
	res     *core.Result
	cost    sample
	obs     *obs.Obs
	pred    *predStats
	centers []*datacenter.Center
	workers int
}

// runOnce runs variant v of the workload once. With traced set, the
// run gets a tracer, a recorder of recCap events and the predictor
// timing wrapper.
func (w simSpec) runOnce(o opts, in *simInputs, v int, traced bool, recCap int) (*simRun, error) {
	dir := ""
	if w.checkpoints {
		var err error
		if dir, err = os.MkdirTemp(o.tmp, "perfbench-ckpt-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	r := &simRun{workers: w.workers}
	f := in.factory
	if traced {
		r.pred = &predStats{}
		f = r.pred.wrap(f)
	}
	cfg := w.config(in, f, dir, v)
	if traced {
		if cfg.Obs == nil {
			cfg.Obs = obs.New()
		}
		cfg.Obs.Recorder = obs.NewRecorder(recCap)
		cfg.Obs.EnableTracing(tracerCapacity)
	}
	r.obs, r.centers = cfg.Obs, cfg.Centers
	m := startMeter()
	res, err := core.Run(cfg)
	r.cost = m.stop()
	if err != nil {
		return nil, err
	}
	r.res = res
	return r, nil
}

// tracerCapacity bounds the span buffer; it grows on demand, so the
// bound costs nothing until used.
const tracerCapacity = 1 << 25

// runSim sets the workload up setupRepeats times, then measures runs
// for o.seconds.
func runSim(o opts, rep *report, w simSpec) error {
	var setups []float64
	var in *simInputs
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cur := &simInputs{}
		w.inputs(o.seeds, cur)
		w.model(o.seeds, cur)
		setups = append(setups, time.Since(t0).Seconds())
		if in != nil {
			rep.check(cur.train == in.train, "set-up %d trained differently: %+v vs %+v", i, cur.train, in.train)
		}
		in = cur
	}
	rep.logf("setup: %d repeats, median %.3fs (trace.Generate %.3fs, pretraining %.3fs, %d eras)",
		setupRepeats, median(setups), in.genTime.Seconds(), in.trainTime.Seconds(), in.train.Eras)

	if o.traced {
		return runSimTraced(o, rep, w, in)
	}

	var first *core.Result
	digests := map[int]string{}
	var tps, cpu, allocs, tickMS []float64
	deadline := time.Now().Add(o.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		v := i % w.variants
		rep.attempted++
		r, err := w.runOnce(o, in, v, false, 0)
		if err != nil {
			rep.failed++
			rep.fail("core.Run: %v", err)
			return nil
		}
		if first == nil {
			first = r.res
		}
		if d, ok := digests[v]; !ok {
			digests[v] = resultDigest(r.res)
		} else {
			rep.check(resultDigest(r.res) == d, "run %d: Result differs from the earlier run of variant %d", i, v)
		}
		zt := float64(len(in.ds.Groups) * r.res.Ticks)
		tps = append(tps, zt/r.cost.wall.Seconds())
		cpu = append(cpu, float64(r.cost.cpu.Microseconds())/zt)
		allocs = append(allocs, float64(r.cost.allocs)/zt)
		tickMS = append(tickMS, ms(r.cost.wall)/float64(r.res.Ticks))
		rep.logf("run %d (variant %d): wall %.3fs cpu %.3fs allocs %d", i, v, r.cost.wall.Seconds(), r.cost.cpu.Seconds(), r.cost.allocs)
	}
	out := outcomeOf(first)
	rep.logf("outcome of variant 0: %d zones x %d ticks; over-allocation %.4f%%, %d SLA events, %d unmet ticks; digest %s",
		len(in.ds.Groups), first.Ticks, out.OverAllocPct, out.SLAEvents, out.Unmet, digests[0][:16])
	checkGolden(o, rep, w.name, out)

	rep.add("setup_s", "s", median(setups))
	rep.add("zone_ticks_per_s", "1/s", median(tps))
	rep.add("cpu_us_per_zone_tick", "us", median(cpu))
	rep.add("allocs_per_zone_tick", "count", median(allocs))
	rep.add("peak_rss_mb", "MB", peakRSSMB())
	rep.print("decision_mean_ms", "ms", median(tickMS))
	rep.print("over_alloc_pct", "%", out.OverAllocPct)
	rep.print("sla_events", "count", float64(out.SLAEvents))
	return nil
}

// resultDigest hashes every field of a Result, so two runs can be
// compared bit for bit (floats print in their shortest exact form).
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%v|%v|%d|%v|%v|%v|%d|%v|%d|%+v|",
		res.Ticks, res.AvgOverPct, res.AvgUnderPct, res.Events, res.CumEvents,
		res.OverPct, res.UnderPct, res.Unmet, res.AvgUnderByGame, res.ResumedFromTick, *res.Resilience)
	names := make([]string, 0, len(res.CenterStats))
	for name := range res.CenterStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%+v|", name, *res.CenterStats[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}
