package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
)

// outcome is the part of a sim Result pinned per seed in golden.json:
// the paper's efficiency metric, the SLA events, the unmet ticks and
// the resilience counters (without the per-center availability map).
type outcome struct {
	OverAllocPct float64         `json:"over_alloc_pct"`
	SLAEvents    int             `json:"sla_events"`
	Unmet        int             `json:"unmet"`
	Resilience   core.Resilience `json:"resilience"`
}

func outcomeOf(res *core.Result) outcome {
	out := outcome{
		OverAllocPct: res.AvgOverPct[datacenter.CPU],
		SLAEvents:    res.Events,
		Unmet:        res.Unmet,
		Resilience:   *res.Resilience,
	}
	out.Resilience.Availability = nil
	return out
}

// goldenJSON maps workload → --seed → outcome, recorded with the
// default pretraining, fault and emulator seeds by --write-golden.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares out with the recorded outcome for the run's
// seed, when one exists.
func checkGolden(o opts, rep *report, workload string, out outcome) {
	if o.explicit {
		rep.logf("golden: skipped (a seed other than --seed was set)")
		return
	}
	var all map[string]map[string]outcome
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		rep.fail("golden.json: %v", err)
		return
	}
	want, ok := all[workload][strconv.FormatUint(o.seeds.trace, 10)]
	if !ok {
		rep.logf("golden: no record for seed %d", o.seeds.trace)
		return
	}
	if !reflect.DeepEqual(want, out) {
		rep.fail("outcome differs from golden.json at seed %d:\n  got  %+v\n  want %+v", o.seeds.trace, out, want)
		return
	}
	rep.logf("golden: outcome matches the record for seed %d", o.seeds.trace)
}

// goldenSeeds are the --seed values golden.json records: the default
// and the low seeds a series of runs is likely to use.
var goldenSeeds = func() []uint64 {
	s := []uint64{42}
	for i := uint64(0); i <= 20; i++ {
		s = append(s, i)
	}
	return s
}()

// writeGolden records the outcomes of both sims at goldenSeeds. The
// predictor is built once: it depends only on the pretraining seed.
func writeGolden(path string) error {
	all := map[string]map[string]outcome{}
	for _, w := range []simSpec{simPaper, simChaos} {
		recs := map[string]outcome{}
		model := &simInputs{}
		w.model(seeds{pretrain: defaultPretrainSeed}, model)
		for _, s := range goldenSeeds {
			in := &simInputs{factory: model.factory}
			w.inputs(seeds{trace: s, pretrain: defaultPretrainSeed, fault: s, emulator: s}, in)
			r, err := w.runOnce(opts{}, in, 0, false, 0)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			recs[strconv.FormatUint(s, 10)] = outcomeOf(r.res)
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", w.name, s, outcomeOf(r.res))
		}
		all[w.name] = recs
	}
	blob, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
