package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/daemon"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/emulator"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

// The daemon-mixed workload.
const (
	// zoneGrid is the emulator's sub-zone grid side: 144 zones a game.
	zoneGrid = 12
	// bodiesPerGame is one emulated day of two-minute snapshots; the
	// observe load cycles through them.
	bodiesPerGame = 720
	// refRate is the reference rung's observe rate (obs/s, both games
	// together), below the shedding point.
	refRate = 1000.0
	// readRate is the fixed rate of the read connection (reads/s).
	readRate = 500.0
	// ladderStep and ladderRungs shape the ladder above the reference
	// rung: refRate*1.5, refRate*1.5^2, ...
	ladderStep  = 1.5
	ladderRungs = 4
	// satWindows splits the saturation step; its throughput is the
	// median over the windows.
	satWindows = 12
	// warmup is sent at refRate before anything is measured.
	warmup = 500 * time.Millisecond
	// explainDepth is the daemon's decision-provenance ring per game.
	explainDepth = 64
)

var daemonGames = []string{"alpha", "beta"}

// readPaths are the read connection's requests, in rotation.
var readPaths = func() []string {
	var out []string
	for _, g := range daemonGames {
		for _, p := range []string{"/v1/leases", "/v1/forecast", "/v1/explain"} {
			out = append(out, p+"?game="+g)
		}
	}
	return out
}()

// liveDaemon is one in-process daemon under load, with the generator's
// state: the pre-encoded bodies, the two connections and the tallies.
type liveDaemon struct {
	d       *daemon.Daemon
	srv     *daemon.Server
	tel     *obs.Obs
	matcher *ecosystem.Matcher
	centers []*datacenter.Center
	dir     string
	base    string
	traced  bool
	// startedAt is when drive began.
	startedAt time.Time

	bodies     [][][]byte // [game][step]
	obsClient  *http.Client
	readClient *http.Client

	// Per-game generator state. Game g's entries are written by one
	// sender at a time; steps hand over through a WaitGroup.
	next     [2]int // next body
	accepted [2]int
	shed     [2]int
	queueMax [2]int
	// odd counts responses with an unexpected status (key 0 is a
	// transport error), observe and read alike.
	odd map[string]int
	mu  sync.Mutex // guards odd
}

// startDaemon builds the bodies and starts a daemon with cmd/mmogd's
// defaults plus decision provenance, serving on 127.0.0.1.
func startDaemon(o opts, traced bool) (*liveDaemon, error) {
	ld := &liveDaemon{traced: traced, odd: map[string]int{}}
	for gi, name := range daemonGames {
		w := emulator.NewWorld(emulator.Config{
			Name: name, Seed: o.seeds.emulator + uint64(gi),
			GridW: zoneGrid, GridH: zoneGrid, Steps: bodiesPerGame,
		})
		values := make([]float64, zoneGrid*zoneGrid)
		var bodies [][]byte
		for i := 0; i < bodiesPerGame; i++ {
			w.Step()
			for j, c := range w.ZoneCounts() {
				values[j] = float64(c)
			}
			b, err := json.Marshal(daemon.ObserveRequest{Game: name, Values: values})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		ld.bodies = append(ld.bodies, bodies)
	}

	dir, err := os.MkdirTemp(o.tmp, "perfbench-daemon-*")
	if err != nil {
		return nil, err
	}
	ld.dir = dir
	ld.tel = obs.New()
	ld.tel.EnableRuntimeMetrics()
	if traced {
		ld.tel.EnableTracing(tracerCapacity)
		// About 13,000 events a second under the saturation step, which
		// runs for a third of o.seconds in a traced invocation.
		ld.tel.Recorder = obs.NewRecorder(int(o.seconds.Seconds()+2) << 14)
	}
	ld.centers = []*datacenter.Center{
		datacenter.NewCenter("local", geo.Amsterdam, 4, datacenter.OptimalPolicy()),
		datacenter.NewCenter("nearby", geo.London, 4, datacenter.OptimalPolicy()),
	}
	ld.matcher = ecosystem.NewMatcher(ld.centers)
	var specs []daemon.GameSpec
	for _, name := range daemonGames {
		specs = append(specs, daemon.GameSpec{Name: name, Genre: mmog.GenreRPG, Origin: geo.Amsterdam})
	}
	ld.d, err = daemon.New(daemon.Config{
		Games:         specs,
		Predictor:     predict.NewLastValue(),
		Matcher:       ld.matcher,
		Obs:           ld.tel,
		QueueDepth:    64,
		MaxBodyBytes:  1 << 20,
		CheckpointDir: dir,
		Hot:           daemon.DefaultHot(),
		ExplainDepth:  explainDepth,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if ld.srv, err = ld.d.Serve("127.0.0.1:0"); err != nil {
		ld.d.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	ld.base = "http://" + ld.srv.Addr()
	oneConn := func() *http.Client {
		return &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	ld.obsClient, ld.readClient = oneConn(), oneConn()
	return ld, nil
}

// stop drains the daemon, closes the listener and the connections, and
// leaves the checkpoint directory for the caller's checks.
func (ld *liveDaemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ld.d.Drain(ctx)
	ld.srv.Close()
	ld.obsClient.CloseIdleConnections()
	ld.readClient.CloseIdleConnections()
	return err
}

func (ld *liveDaemon) oddStatus(what string, status int) {
	ld.mu.Lock()
	ld.odd[fmt.Sprintf("%s %d", what, status)]++
	ld.mu.Unlock()
}

// observe sends game g's next body on c.
func (ld *liveDaemon) observe(c *http.Client, g int) int {
	body := ld.bodies[g][ld.next[g]%bodiesPerGame]
	ld.next[g]++
	resp, err := c.Post(ld.base+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		ld.oddStatus("observe", 0)
		return 0
	}
	if ld.traced && resp.StatusCode == http.StatusAccepted {
		var ack struct {
			Queued int `json:"queued"`
		}
		if json.NewDecoder(resp.Body).Decode(&ack) == nil && ack.Queued > ld.queueMax[g] {
			ld.queueMax[g] = ack.Queued
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		ld.accepted[g]++
	case http.StatusTooManyRequests:
		ld.shed[g]++
	default:
		ld.oddStatus("observe", resp.StatusCode)
	}
	return resp.StatusCode
}

// read sends read request i of the rotation.
func (ld *liveDaemon) read(i int) int {
	resp, err := ld.readClient.Get(ld.base + readPaths[i%len(readPaths)])
	if err != nil {
		ld.oddStatus("read", 0)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ld.oddStatus("read", resp.StatusCode)
	}
	return resp.StatusCode
}

// observed reports whether the daemon has observed every accepted
// sample.
func (ld *liveDaemon) observed() bool {
	for gi, name := range daemonGames {
		if ld.d.Ticks(name) < ld.accepted[gi] {
			return false
		}
	}
	return true
}

// waitObserved polls until every accepted sample is observed or the
// deadline passes.
func (ld *liveDaemon) waitObserved(deadline time.Time) bool {
	for !ld.observed() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// step runs one rung: observes at rate on one connection and reads at
// readRate on the other, both open-loop for dur, then waits for the
// daemon to observe what it accepted. It returns the rung and the read
// RTTs (ms).
func (ld *liveDaemon) step(rate float64, dur time.Duration) (rung, []float64) {
	start := time.Now().Add(time.Millisecond)
	var reads []shot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = openLoop(realClock{}, start, readRate, int(readRate*dur.Seconds()), ld.read)
	}()
	shots := openLoop(realClock{}, start, rate, int(rate*dur.Seconds()), func(i int) int {
		return ld.observe(ld.obsClient, i%len(daemonGames))
	})
	wg.Wait()
	end := time.Now()
	r := rung{rate: rate, sent: len(shots)}
	for _, s := range shots {
		switch s.status {
		case http.StatusAccepted:
			r.accepted++
		case http.StatusTooManyRequests:
			r.shed++
		default:
			r.failed++
		}
		r.rttMS = append(r.rttMS, ms(s.rtt))
		r.lateMS = append(r.lateMS, ms(s.late))
	}
	var readMS []float64
	for _, s := range reads {
		if s.status != http.StatusOK {
			r.failed++
		}
		readMS = append(readMS, ms(s.rtt))
	}
	r.drained = ld.waitObserved(end.Add(drainLimit))
	if !r.drained {
		// Let the backlog clear before anything else is measured.
		ld.waitObserved(end.Add(10 * time.Second))
	}
	return r, readMS
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loopStats sums the daemon's admission-to-observed histogram over
// the games.
func (ld *liveDaemon) loopStats() (sum float64, count int64) {
	for _, name := range daemonGames {
		h := ld.tel.Registry.Histogram("mmogdc_daemon_observe_loop_seconds", "", obs.TimeBuckets, obs.L("game", name))
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}

func (ld *liveDaemon) counter(name string) int64 {
	var n int64
	for _, g := range daemonGames {
		n += ld.tel.Registry.Counter(name, "", obs.L("game", g)).Value()
	}
	return n
}

// schedule is one run's load plan.
type schedule struct {
	// ref is the reference rung's length.
	ref time.Duration
	// ladder enables the ladder; each rung lasts long enough for its
	// p99.
	ladder bool
	// sat is the saturation step's length; 0 skips it.
	sat time.Duration
}

// planFor spreads d over the reference rung (long enough for 1,000
// reads), the ladder (about 1.7s) and the saturation step (65%): the
// gated throughput and CPU figures come from the saturation step, and
// they are the noisiest, so it gets the most time.
func planFor(d time.Duration) schedule {
	return schedule{
		ref:    maxDur(d/10, samplesTime(readRate)),
		ladder: true,
		sat:    d * 65 / 100,
	}
}

// samplesTime is how long a rate takes to give a p99 its samples.
func samplesTime(rate float64) time.Duration {
	return time.Duration(1.05 * 100 * minBeyond / rate * float64(time.Second))
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// daemonRun is the outcome of one schedule on one daemon.
type daemonRun struct {
	warm     rung
	ref      rung
	readMS   []float64
	refCost  sample
	loopMean float64 // ms
	rungs    []rung  // reference first, then the ladder
	// satRate is the saturation step's observe throughput (obs/s),
	// satCost its process cost, satSent and satAccepted its observe
	// counts.
	satRate              float64
	satCost              sample
	satSent, satAccepted int
	sent                 int // requests of both connections
	failed               int
}

// drive runs sched on ld: warm-up, the metered reference rung, the
// ladder until a rung fails, then the saturation step.
func (ld *liveDaemon) drive(rep *report, sched schedule) daemonRun {
	ld.startedAt = time.Now()
	var out daemonRun
	tally := func(what string, r rung, reads []float64) {
		out.sent += r.sent + len(reads)
		out.failed += r.failed
		p99, beyond := quantile(r.rttMS, 0.99)
		late, _ := quantile(r.lateMS, 0.99)
		rep.logf("%s %4.0f obs/s: sent %d accepted %d shed %d failed %d; reads %d; rtt p99 %.3fms (%d samples, %d beyond); lateness p99 %.3fms; drained %v; pass %v",
			what, r.rate, r.sent, r.accepted, r.shed, r.failed, len(reads), p99, len(r.rttMS), beyond, late, r.drained, r.passes())
	}
	var reads []float64
	out.warm, reads = ld.step(refRate, warmup)
	tally("warm-up", out.warm, reads)

	sum0, n0 := ld.loopStats()
	m := startMeter()
	out.ref, out.readMS = ld.step(refRate, sched.ref)
	out.refCost = m.stop()
	sum1, n1 := ld.loopStats()
	if n1 > n0 {
		out.loopMean = 1000 * (sum1 - sum0) / float64(n1-n0)
	}
	tally("reference", out.ref, out.readMS)
	out.rungs = []rung{out.ref}
	rate := refRate
	for k := 0; sched.ladder && k < ladderRungs && out.rungs[len(out.rungs)-1].passes(); k++ {
		rate *= ladderStep
		r, reads := ld.step(rate, samplesTime(rate))
		tally("rung", r, reads)
		out.rungs = append(out.rungs, r)
	}
	if sched.sat > 0 {
		out.satRate = ld.saturate(rep, sched.sat, &out)
	}
	return out
}

// saturate sends observes back to back for dur on both connections,
// one game each, and returns the median over satWindows windows of the
// accepted observations per second. Reads pause meanwhile.
func (ld *liveDaemon) saturate(rep *report, dur time.Duration, out *daemonRun) float64 {
	type result struct{ ok, statuses []int }
	var res [2]result
	var wg sync.WaitGroup
	m := startMeter()
	for g, c := range []*http.Client{ld.obsClient, ld.readClient} {
		wg.Add(1)
		go func(g int, c *http.Client) {
			defer wg.Done()
			res[g].ok, res[g].statuses = closedLoop(realClock{}, dur, satWindows,
				func(int) int { return ld.observe(c, g) })
		}(g, c)
	}
	wg.Wait()
	drained := ld.waitObserved(time.Now().Add(10 * time.Second))
	cost := m.stop()
	rep.check(drained, "saturation step: accepted samples not observed within 10s")
	rates := make([]float64, satWindows)
	sent, accepted, shed := 0, 0, 0
	for _, r := range res {
		sent += len(r.statuses)
		for w, n := range r.ok {
			rates[w] += float64(n) / (dur.Seconds() / satWindows)
			accepted += n
		}
		for _, st := range r.statuses {
			switch st {
			case http.StatusAccepted:
			case http.StatusTooManyRequests:
				shed++
			default:
				out.failed++
			}
		}
	}
	out.sent += sent
	out.satSent, out.satAccepted, out.satCost = sent, accepted, cost
	rep.logf("saturation %v on 2 connections: sent %d, shed %d; accepted obs/s per window %.0f; cpu %.1f us/obs, allocs %.1f/obs",
		dur, sent, shed, rates, float64(cost.cpu.Microseconds())/float64(accepted), float64(cost.allocs)/float64(accepted))
	return median(rates)
}

// finish drains ld and checks the daemon's accounting: every accepted
// sample observed, only 202/429 (observe) and 200 (read) answers, the
// shed count matching the daemon's, and each game's newest checkpoint
// loadable at its final tick.
func (ld *liveDaemon) finish(rep *report) {
	for k, n := range ld.odd {
		rep.fail("unexpected response %s: %d times", k, n)
	}
	if err := ld.stop(); err != nil {
		rep.fail("drain: %v", err)
	}
	if n, seen := ld.counter("mmogdc_daemon_shed_total"), ld.shed[0]+ld.shed[1]; n != int64(seen) {
		rep.fail("generator saw %d shed responses, the daemon counted %d", seen, n)
	}
	for gi, name := range daemonGames {
		ticks := ld.d.Ticks(name)
		rep.check(ticks == ld.accepted[gi], "game %s: %d ticks observed, %d samples accepted", name, ticks, ld.accepted[gi])
		mgr, err := checkpoint.NewManager(filepath.Join(ld.dir, name))
		if err != nil {
			rep.fail("game %s: checkpoint manager: %v", name, err)
			continue
		}
		snap, err := mgr.Latest()
		if err != nil {
			rep.fail("game %s: newest checkpoint does not load: %v", name, err)
			continue
		}
		rep.check(snap.Tick == ticks, "game %s: newest checkpoint at tick %d, want %d", name, snap.Tick, ticks)
	}
	os.RemoveAll(ld.dir)
}

// runDaemonMixed measures the live service: set-up, then the schedule;
// with tracing, an untraced reference rung and a traced schedule.
func runDaemonMixed(o opts, rep *report) error {
	var setups []float64
	var ld *liveDaemon
	for i := 0; i < setupRepeats; i++ {
		if ld != nil {
			err := ld.stop()
			os.RemoveAll(ld.dir)
			if err != nil {
				return fmt.Errorf("set-up %d: drain: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if ld, err = startDaemon(o, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.logf("setup: %d repeats, median %.3fs", setupRepeats, median(setups))
	if o.traced {
		return runDaemonTraced(o, rep, ld)
	}

	run := ld.drive(rep, planFor(o.seconds))
	ld.finish(rep)
	rep.attempted += int64(run.sent)
	rep.failed += int64(run.failed)

	maxOK := maxOKRate(run.rungs)
	zones := float64(zoneGrid * zoneGrid)
	acc := float64(run.ref.accepted)
	rep.add("setup_s", "s", median(setups))
	rep.add("zone_ticks_per_s", "1/s", run.satRate*zones)
	rep.add("cpu_us_per_zone_tick", "us", float64(run.satCost.cpu.Microseconds())/float64(run.satAccepted)/zones)
	rep.add("allocs_per_zone_tick", "count", float64(run.refCost.allocs)/acc/zones)
	rep.add("peak_rss_mb", "MB", peakRSSMB())

	rep.logf("max_ok_rate: rungs pass with RTT p99 <= %.0fms, nothing failed or shed, all observed within %v",
		rttLimitMS, drainLimit)
	rep.print("max_ok_rate", "obs/s", maxOK)
	printPct(rep, "rtt_p50_ms", run.ref.rttMS, 0.50)
	printPct(rep, "rtt_p99_ms", run.ref.rttMS, 0.99)
	rep.print("decision_mean_ms", "ms", run.loopMean)
	printPct(rep, "read_p50_ms", run.readMS, 0.50)
	printPct(rep, "read_p99_ms", run.readMS, 0.99)
	rep.print("cpu_us_per_obs", "us", float64(run.refCost.cpu.Microseconds())/acc)
	rep.print("allocs_per_obs", "count", float64(run.refCost.allocs)/acc)
	return nil
}

// printPct prints one reference-rung percentile (ms) with its sample
// counts; too few samples beyond it fail the run.
func printPct(rep *report, name string, xs []float64, p float64) {
	v, beyond := quantile(xs, p)
	rep.logf("%s: %d samples, %d beyond", name, len(xs), beyond)
	if beyond < minBeyond {
		rep.fail("%s: only %d of %d samples beyond p%g, need %d", name, beyond, len(xs), p*100, minBeyond)
		return
	}
	rep.print(name, "ms", v)
}

// runDaemonTraced measures the reference rung untraced on ld, then the
// whole schedule on a traced daemon, and reports the per-layer metrics
// from the traced one.
func runDaemonTraced(o opts, rep *report, ld *liveDaemon) error {
	half := o.seconds / 2
	plain := ld.drive(rep, schedule{ref: planFor(half).ref})
	ld.finish(rep)
	rep.attempted += int64(plain.sent)
	rep.failed += int64(plain.failed)

	tl, err := startDaemon(o, true)
	if err != nil {
		return err
	}
	run := tl.drive(rep, planFor(half))
	rep.attempted += int64(run.sent)
	rep.failed += int64(run.failed)
	ls := layerSet{}
	live := 0
	for _, c := range tl.centers {
		live += c.ActiveLeases()
	}
	ls["datacenter.live_leases_end"] = float64(live)
	ls["ecosystem.decisions_recorded"] = float64(tl.matcher.DecisionLog().Total())
	wall := time.Since(tl.startedAt)
	daemonLayers(rep, tl, run, ls, wall)
	tl.finish(rep)

	perObs := func(r daemonRun) float64 {
		return float64(r.refCost.cpu.Nanoseconds()) / float64(r.ref.accepted)
	}
	ls["obs.trace_overhead_pct"] = 100 * (perObs(run)/perObs(plain) - 1)
	rep.logf("trace overhead: %.1f vs %.1f us CPU per accepted observation (traced vs untraced reference rung)",
		perObs(run)/1e3, perObs(plain)/1e3)
	rep.check(ls["obs.events_dropped"] == 0 && ls["obs.spans_dropped"] == 0,
		"traced run dropped %v events and %v spans", ls["obs.events_dropped"], ls["obs.spans_dropped"])
	ls.emit(rep)
	return nil
}

// Daemon span layers in precedence order (see exclusive).
const (
	rankQueue     = iota // daemon.queue_wait: admitted, waiting for the game's worker
	rankHTTP             // daemon.request: handler (decode, admission, encode)
	rankWorker           // daemon.observe: the worker's own work (lock, checkpoint, explain)
	rankOperator         // operator.observe: predict, demand, lease book
	rankOpAcquire        // operator.acquire: the matcher
	daemonRanks
)

var daemonSpanRank = map[string]int{
	"daemon.queue_wait": rankQueue, "daemon.request": rankHTTP, "daemon.observe": rankWorker,
	"operator.observe": rankOperator, "operator.acquire": rankOpAcquire,
}

// daemonLayers fills ls from the traced daemon's spans, counters and
// the generator, and prints the wall-time budget of the traced run.
func daemonLayers(rep *report, ld *liveDaemon, run daemonRun, ls layerSet, wall time.Duration) {
	recs := ld.tel.Tracer.Records()
	var ivs []ival
	for _, s := range recs {
		if rank, ok := daemonSpanRank[s.Name]; ok && s.Phase == obs.PhaseSpan {
			ivs = append(ivs, ival{s.Start, s.End, rank})
		}
	}
	self, _ := exclusive(ivs, daemonRanks)
	printBudget(rep, wall, []budgetRow{
		{"daemon.queue", self[rankQueue]},
		{"daemon.http", self[rankHTTP]},
		{"daemon.worker", self[rankWorker]},
		{"operator", self[rankOperator]},
		{"ecosystem", self[rankOpAcquire]},
	})

	opObs := spanDurations(recs, "operator.observe")
	ls["operator.observe_calls"] = float64(len(opObs))
	ls.pct(rep, "operator.observe_p50_us", opObs, 0.50, 1e6)
	ls.pct(rep, "operator.observe_p99_us", opObs, 0.99, 1e6)
	allocs := spanDurations(recs, "operator.acquire")
	ls["ecosystem.allocate_calls"] = float64(len(allocs))
	ls["ecosystem.allocate_busy_s"] = sum(allocs)
	ls.pct(rep, "ecosystem.allocate_p99_us", allocs, 0.99, 1e6)
	ls["ecosystem.failover_calls"] = float64(ld.counter("mmogdc_operator_failovers_total"))
	ls["ecosystem.retry_calls"] = float64(ld.counter("mmogdc_operator_retries_total"))
	if len(allocs) > 0 {
		ls["ecosystem.grant_ratio"] = float64(ld.counter("mmogdc_operator_grants_total")) / float64(len(allocs))
	}
	ls["datacenter.leases_granted"] = float64(ld.counter("mmogdc_operator_grant_leases_total"))

	var observeReq, readReq []float64
	for _, s := range recs {
		if s.Name != "daemon.request" {
			continue
		}
		d := s.End.Sub(s.Start).Seconds()
		if s.Subject == "/v1/observe" {
			observeReq = append(observeReq, d)
		} else {
			readReq = append(readReq, d)
		}
	}
	ls.pct(rep, "daemon.request_p50_us", observeReq, 0.50, 1e6)
	ls.pct(rep, "daemon.request_p99_us", observeReq, 0.99, 1e6)
	ls.pct(rep, "daemon.read_p99_us", readReq, 0.99, 1e6)
	qw := spanDurations(recs, "daemon.queue_wait")
	ls.pct(rep, "daemon.queue_wait_p50_ms", qw, 0.50, 1e3)
	ls.pct(rep, "daemon.queue_wait_p99_ms", qw, 0.99, 1e3)
	ls["daemon.queue_depth_max"] = float64(max(ld.queueMax[0], ld.queueMax[1]))
	ls["daemon.shed"] = float64(ld.counter("mmogdc_daemon_shed_total"))
	ls["daemon.timeouts"] = float64(ld.counter("mmogdc_daemon_observe_timeouts_total"))
	ls["checkpoint.count"] = float64(ld.counter("mmogdc_daemon_checkpoints_total"))
	if b := ld.checkpointBytes(); b > 0 {
		ls["checkpoint.bytes_mean"] = b
	}

	var late []float64
	sent, accepted := run.satSent, run.satAccepted
	for _, r := range append([]rung{run.warm}, run.rungs...) {
		late = append(late, r.lateMS...)
		sent += r.sent
		accepted += r.accepted
	}
	ls.pct(rep, "load.lateness_p99_ms", late, 0.99, 1)
	ls["load.sent"] = float64(sent)
	ls["load.accepted"] = float64(accepted)

	ls["obs.events_recorded"] = float64(ld.tel.Recorder.Total())
	ls["obs.events_dropped"] = float64(ld.tel.Recorder.Dropped())
	ls["obs.spans_dropped"] = float64(ld.tel.Tracer.Dropped())
}

// checkpointBytes is the mean payload size of the games' newest
// checkpoints, 0 when there are none.
func (ld *liveDaemon) checkpointBytes() float64 {
	var sizes []float64
	for _, name := range daemonGames {
		mgr, err := checkpoint.NewManager(filepath.Join(ld.dir, name))
		if err != nil {
			continue
		}
		if snap, err := mgr.Latest(); err == nil {
			sizes = append(sizes, float64(len(snap.Payload)))
		}
	}
	return mean(sizes)
}
