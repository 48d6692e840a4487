// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points of the trace-replay
// simulator (core.Run) or the live service (an in-process daemon.Daemon
// served on 127.0.0.1), checks the outputs, and prints the workload's
// metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it adds a traced run and reports the per-layer
// metrics. See perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// seeds are the workload's input seeds. Only trace defaults to --seed
// directly; the others derive from it unless given.
type seeds struct {
	// trace seeds the generated population trace (sims).
	trace uint64
	// pretrain seeds the shadow trace and the neural pretraining the
	// way cmd/mmogsim derives them from its -seed (shadow = p+1,
	// shuffle = p+2, init = p+3).
	pretrain uint64
	// fault seeds the stochastic fault injector (sim-chaos).
	fault uint64
	// emulator seeds the daemon workload's emulated game worlds.
	emulator uint64
}

// defaultPretrainSeed holds the pretraining input fixed across --seed
// values, so setup_s measures the same training work in every run.
const defaultPretrainSeed = 42

// opts are one invocation's settings.
type opts struct {
	workload string
	seeds    seeds
	seconds  time.Duration
	traced   bool
	// explicit is true when a seed other than --seed was overridden;
	// golden records exist only for the derived defaults.
	explicit bool
	// tmp is where runs put their checkpoint directories.
	tmp string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", 42, "input seed")
		seconds   = flag.Int("seconds", 10, "measured time per run, in seconds")
		traceFlag = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		pretrain  = flag.Uint64("pretrain-seed", defaultPretrainSeed, "seed of the shadow trace and neural pretraining (sim-paper)")
		faultSeed = flag.Uint64("fault-seed", 0, "fault injector seed (sim-chaos; 0 = --seed)")
		emuSeed   = flag.Uint64("emulator-seed", 0, "emulator seed (daemon-mixed; 0 = --seed)")
		tmpDir    = flag.String("tmp", "", "directory for checkpoint files (default: the system temp dir)")
		goldenOut = flag.String("write-golden", "", "record the sim outcomes at the golden seeds into this file and exit")
	)
	flag.Parse()

	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := opts{
		workload: *workload,
		seeds:    seeds{trace: *seed, pretrain: *pretrain, fault: *faultSeed, emulator: *emuSeed},
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		explicit: *pretrain != defaultPretrainSeed || *faultSeed != 0 || *emuSeed != 0,
		tmp:      *tmpDir,
	}
	if o.seeds.fault == 0 {
		o.seeds.fault = *seed
	}
	if o.seeds.emulator == 0 {
		o.seeds.emulator = *seed
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n",
		o.workload, *seed, *seconds, *traceFlag)
	fmt.Fprintf(out, "# machine: %s\n", fingerprint())

	rep := &report{out: out}
	if err := w(o, rep); err != nil {
		rep.fail("%v", err)
	}
	rep.finish()
	if !rep.correct() {
		return 1
	}
	return 0
}

// workload runs one named workload, filling rep. An error aborts the
// workload; a wrong output is reported through rep.fail instead, so
// the remaining checks still run.
type workload func(o opts, rep *report) error

var workloads = map[string]workload{
	"sim-paper":    runSimPaper,
	"sim-chaos":    runSimChaos,
	"daemon-mixed": runDaemonMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// fingerprint describes the machine a result was measured on.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// printed metrics appear in the text output only, not in the JSON
	// result: BENCHMARK.json does not gate them.
	printed bool
}

// report collects a run's metrics, operation counts and correctness
// problems, and prints them.
type report struct {
	out       *bufio.Writer
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string
}

// add records one metric. A NaN or infinite value is a benchmark bug:
// it is reported as a problem and printed as 0.
func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v, false})
}

// print records one metric for the text output only.
func (r *report) print(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v, true})
}

// fail records one failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check fails with the message unless cond holds.
func (r *report) check(cond bool, format string, args ...any) {
	if !cond {
		r.fail(format, args...)
	}
}

// logf prints one human-readable line (never the last line).
func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.attempted > 0 }

// finish writes the metric table, the problems, and the JSON result
// line.
func (r *report) finish() {
	for _, m := range r.metrics {
		note := ""
		if m.printed {
			note = "   (printed only)"
		}
		fmt.Fprintf(r.out, "%-34s %16.6g %s%s\n", m.name, m.value, m.unit, note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(r.out, "%-34s %16.6g %s   (%d of %d)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(r.out, "CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if !m.printed {
			ms[m.name] = value{m.value, m.unit}
		}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Fprintf(r.out, "%s\n", line)
}
