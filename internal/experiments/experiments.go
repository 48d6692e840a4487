// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment is a named runner producing a
// plain-text report; cmd/experiments exposes them on the command line
// and the repository's benchmark suite wraps them as testing.B
// targets. The per-experiment index in DESIGN.md maps experiment IDs
// to paper artifacts.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// Options tune experiment size; the zero value runs the full
// paper-scale configuration.
type Options struct {
	// Days is the provisioning-trace length; defaults to 14 (the
	// paper's two weeks).
	Days int
	// Seed drives every stochastic component; defaults to 42.
	Seed uint64
	// Quick shrinks workloads for fast test runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Days == 0 {
		o.Days = 14
		if o.Quick {
			o.Days = 2
		}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Spec describes one runnable experiment.
type Spec struct {
	// ID is the index key ("tab05", "fig08", ...).
	ID string
	// Artifact names the paper artifact it regenerates.
	Artifact string
	// Title is a one-line description.
	Title string
	// Run produces the report.
	Run func(Options) (string, error)
}

// Registry lists every experiment in paper order.
func Registry() []Spec {
	return []Spec{
		{ID: "fig01", Artifact: "Figure 1", Title: "MMORPG players over time", Run: Fig01},
		{ID: "fig02", Artifact: "Figure 2", Title: "Global active concurrent players with population events", Run: Fig02},
		{ID: "fig03", Artifact: "Figure 3", Title: "Regional workload: load range, IQR, autocorrelation", Run: Fig03},
		{ID: "fig04", Artifact: "Figure 4", Title: "Packet length and IAT CDFs for eight session traces", Run: Fig04},
		{ID: "tab01", Artifact: "Table I", Title: "Emulator configurations and generated data sets", Run: Tab01},
		{ID: "fig05", Artifact: "Figure 5", Title: "Prediction error of seven algorithms on eight data sets", Run: Fig05},
		{ID: "fig06", Artifact: "Figure 6", Title: "Per-prediction latency of the prediction methods", Run: Fig06},
		{ID: "tab05", Artifact: "Table V", Title: "Dynamic allocation under six prediction algorithms", Run: Tab05},
		{ID: "fig07", Artifact: "Figure 7", Title: "Cumulative significant under-allocation events per predictor", Run: Fig07},
		{ID: "fig08", Artifact: "Figure 8", Title: "Over-allocation: static vs dynamic provisioning", Run: Fig08},
		{ID: "tab06", Artifact: "Table VI", Title: "Static vs dynamic across five interaction types", Run: Tab06},
		{ID: "fig09", Artifact: "Figure 9", Title: "Over/under-allocation time series for three update models", Run: Fig09},
		{ID: "fig10", Artifact: "Figure 10", Title: "Cumulative events for five update models", Run: Fig10},
		{ID: "fig11", Artifact: "Figure 11", Title: "Impact of the CPU resource bulk", Run: Fig11},
		{ID: "fig12", Artifact: "Figure 12", Title: "Impact of the time bulk", Run: Fig12},
		{ID: "fig13", Artifact: "Figure 13", Title: "Allocation distribution by latency tolerance", Run: Fig13},
		{ID: "fig14", Artifact: "Figure 14", Title: "Per-center allocation at Very far tolerance", Run: Fig14},
		{ID: "tab07", Artifact: "Table VII", Title: "Concurrent MMOG mixes", Run: Tab07},
	}
}

// All returns the paper experiments followed by the extensions.
func All() []Spec {
	return append(Registry(), Extensions()...)
}

// ByID returns the experiment (or extension) with the given ID.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ---- shared setup ----

// provisioningTrace is the workload of the Section V experiments: the
// first Options.Days days of the RuneScape-like trace.
func provisioningTrace(o Options) *trace.Dataset {
	cfg := trace.Config{Seed: o.Seed, Days: o.Days}
	if o.Quick {
		cfg.Regions = []trace.Region{
			{ID: 0, Name: "Europe", Location: trace.DefaultRegions()[0].Location, Groups: 10},
			{ID: 1, Name: "US East Coast", Location: trace.DefaultRegions()[1].Location, UTCOffsetHours: -5, Groups: 6},
		}
	}
	return trace.Generate(cfg)
}

// shadowCollected is the offline data-collection phase for the neural
// predictor: an earlier observation period of the same game (same
// configuration, different seed).
func shadowCollected(o Options) [][]float64 {
	days := 2
	if o.Quick {
		days = 1
	}
	cfg := trace.Config{Seed: o.Seed + 1, Days: days}
	if o.Quick {
		cfg.Regions = []trace.Region{
			{ID: 0, Name: "Europe", Location: trace.DefaultRegions()[0].Location, Groups: 10},
		}
	}
	ds := trace.Generate(cfg)
	out := make([][]float64, len(ds.Groups))
	for i, g := range ds.Groups {
		out[i] = g.Load.Values
	}
	return out
}

// pretrained memoizes neuralFactory per (Seed, Quick), the only
// options pretraining depends on: a neuralKey maps to a sync.OnceValue
// that trains once however many experiments ask for it concurrently.
// Sharing the factory is safe because it clones the trained network
// for every predictor it builds.
var pretrained sync.Map

type neuralKey struct {
	seed  uint64
	quick bool
}

// neuralFactory pretrains the paper's neural predictor on the shadow
// trace, once per process for each (Seed, Quick).
func neuralFactory(o Options) predict.Factory {
	train, _ := pretrained.LoadOrStore(neuralKey{o.Seed, o.Quick}, sync.OnceValue(func() predict.Factory {
		tc := predict.PaperTrainConfig(o.Seed + 2)
		if o.Quick {
			tc.MaxEras = 10
		}
		f, _ := predict.PretrainShared(predict.PaperNeuralConfig(o.Seed+3), shadowCollected(o), 0.8, tc)
		return f
	}))
	return train.(func() predict.Factory)()
}

// standardGame is the RuneScape-like O(n^2) game of Sections V-B/V-D.
func standardGame() *mmog.Game {
	return mmog.NewGame("RuneScape-like", mmog.GenreMMORPG)
}

// ---- rendering helpers ----

// table renders rows of columns with aligned widths.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// f2 formats a float with two decimals. Undefined metrics (NaN, e.g.
// core.Result.AvgOverPct for a resource that never saw load) render
// as "n/a" instead of leaking "NaN" into report text.
func f2(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// f3 formats a float with three decimals; NaN renders as "n/a".
func f3(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// sortedKeys returns the map's keys sorted.
func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
