package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// assertResultsEqual compares two Results bit-for-bit (NaN-safe, which
// reflect.DeepEqual is not for floats), ignoring ResumedFromTick.
func assertResultsEqual(t *testing.T, want, got *Result) {
	t.Helper()
	f64 := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %v (uninterrupted) vs %v (resumed)", name, a, b)
		}
	}
	if want.Ticks != got.Ticks || want.Events != got.Events || want.Unmet != got.Unmet {
		t.Fatalf("counters: %d/%d/%d vs %d/%d/%d",
			want.Ticks, want.Events, want.Unmet, got.Ticks, got.Events, got.Unmet)
	}
	for r := 0; r < int(datacenter.NumResources); r++ {
		f64("AvgOverPct", want.AvgOverPct[r], got.AvgOverPct[r])
		f64("AvgUnderPct", want.AvgUnderPct[r], got.AvgUnderPct[r])
	}
	if !reflect.DeepEqual(want.CumEvents, got.CumEvents) {
		t.Fatal("CumEvents series diverged")
	}
	for i := range want.OverPct {
		f64("OverPct", want.OverPct[i], got.OverPct[i])
		f64("UnderPct", want.UnderPct[i], got.UnderPct[i])
	}
	if len(want.AvgUnderByGame) != len(got.AvgUnderByGame) {
		t.Fatal("AvgUnderByGame key sets diverged")
	}
	for name, v := range want.AvgUnderByGame {
		f64("AvgUnderByGame["+name+"]", v, got.AvgUnderByGame[name])
	}
	a, b := want.Resilience, got.Resilience
	if a.Outages != b.Outages || a.FullOutages != b.FullOutages ||
		a.PartialOutages != b.PartialOutages || a.CapacityRecovered != b.CapacityRecovered ||
		a.ServiceRecovered != b.ServiceRecovered || a.Failovers != b.Failovers ||
		a.FailoverLeases != b.FailoverLeases || a.Retries != b.Retries ||
		a.Rejections != b.Rejections || a.PartialGrants != b.PartialGrants ||
		a.DroppedSamples != b.DroppedSamples ||
		a.RegionBlackouts != b.RegionBlackouts || a.FailoversDeferred != b.FailoversDeferred ||
		a.BrownoutTicks != b.BrownoutTicks || a.ShedLeases != b.ShedLeases ||
		a.TimeToFullRecoveryTicks != b.TimeToFullRecoveryTicks {
		t.Fatalf("resilience counters diverged:\n  %+v\n  %+v", a, b)
	}
	f64("MeanTimeToRecoverTicks", a.MeanTimeToRecoverTicks, b.MeanTimeToRecoverTicks)
	f64("CapacityLostCPUTicks", a.CapacityLostCPUTicks, b.CapacityLostCPUTicks)
	f64("ShedPlayerTicks", a.ShedPlayerTicks, b.ShedPlayerTicks)
	for name, v := range a.Availability {
		f64("Availability["+name+"]", v, b.Availability[name])
	}
	if len(want.CenterStats) != len(got.CenterStats) {
		t.Fatal("CenterStats key sets diverged")
	}
	for name, cs := range want.CenterStats {
		gs := got.CenterStats[name]
		f64("AvgAllocatedCPU["+name+"]", cs.AvgAllocatedCPU, gs.AvgAllocatedCPU)
		f64("AvgFreeCPU["+name+"]", cs.AvgFreeCPU, gs.AvgFreeCPU)
		for region, v := range cs.AllocatedByRegion {
			f64("AllocatedByRegion["+name+"/"+region+"]", v, gs.AllocatedByRegion[region])
		}
	}
}

// resumableConfig builds a run exercising every checkpointed subsystem:
// two games (per-game accounting), fault injection (outages, grant
// faults, dropouts — the sequential grant stream must resume
// mid-sequence), a scheduled failure, center tracking, and a stateful
// predictor. Centers are built fresh per call, as a restarted process
// would.
func resumableConfig() Config {
	return Config{
		Workloads: []Workload{
			{Game: mmog.NewGame("alpha-game", mmog.GenreMMORPG),
				Dataset: syntheticDataset(3, 300, 1500), Predictor: predict.NewAR(3, 6, 32)},
			{Game: mmog.NewGame("beta-game", mmog.GenreFPS),
				Dataset: syntheticDataset(2, 300, 900), Predictor: predict.NewMovingAverage(5)},
		},
		Centers:      fineCenters(60),
		TrackCenters: true,
		SafetyMargin: 0.05,
		Failures:     []Failure{{Center: "dc", AtTick: 130, DurationTicks: 6}},
		Faults: &faults.Config{
			Seed:             5,
			MTBFTicks:        90,
			MTTRTicks:        8,
			DegradedShare:    0.5,
			RejectProb:       0.05,
			PartialGrantProb: 0.1,
			DropoutProb:      0.02,
		},
	}
}

// TestCheckpointResumeMatchesUninterrupted is the engine's headline
// guarantee: kill the run mid-flight (StopAfterTick), restart it over
// the checkpoint directory with fresh centers, and the final Result is
// bit-identical to a run that never stopped.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 50
	stopped.StopAfterTick = 137 // off-cadence: exercises the forced save
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	resumed := resumableConfig()
	resumed.CheckpointDir = dir
	resumed.CheckpointEveryTicks = 50
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 137 {
		t.Fatalf("resumed from tick %d, want 137", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestCheckpointResumeStaticMode covers the predictor-free path: a
// static deployment with a home-center failure resumes mid-outage.
func TestCheckpointResumeStaticMode(t *testing.T) {
	mk := func() Config {
		return Config{
			Static: true,
			Workloads: []Workload{{Game: testGame(),
				Dataset: syntheticDataset(2, 120, 1200)}},
			Centers:  fineCenters(40),
			Failures: []Failure{{Center: "dc", AtTick: 40, DurationTicks: 20}},
		}
	}
	ref, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := mk()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 10
	stopped.StopAfterTick = 45 // inside the outage window
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	resumed := mk()
	resumed.CheckpointDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 45 {
		t.Fatalf("resumed from tick %d, want 45", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestResumeFallsBackOverCorruptCheckpoint flips a bit in the newest
// checkpoint: the resumed run must skip it, restart from the previous
// good one, and still reproduce the uninterrupted Result exactly. A
// damaged snapshot is never silently loaded.
func TestResumeFallsBackOverCorruptCheckpoint(t *testing.T) {
	ref, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 20
	stopped.StopAfterTick = 100
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(mgr.Path(100))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x10
	if err := os.WriteFile(mgr.Path(100), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := resumableConfig()
	resumed.CheckpointDir = dir
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != 80 {
		t.Fatalf("resumed from tick %d, want 80 (100 was corrupt)", res.ResumedFromTick)
	}
	assertResultsEqual(t, ref, res)
}

// TestResumeRejectsForeignCheckpoint: a snapshot only resumes the run
// it was taken from — different zone topology, different fault plan,
// or recycled (dirty) centers must all be refused loudly.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stopped := resumableConfig()
	stopped.CheckpointDir = dir
	stopped.StopAfterTick = 60
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	other := resumableConfig()
	other.CheckpointDir = dir
	other.Workloads = other.Workloads[:1] // fewer zones
	if _, err := Run(other); err == nil {
		t.Fatal("checkpoint with a different zone set accepted")
	}

	noFaults := resumableConfig()
	noFaults.CheckpointDir = dir
	noFaults.Faults = nil // the grant stream in the snapshot has no home
	if _, err := Run(noFaults); err == nil {
		t.Fatal("checkpoint with mismatched fault injection accepted")
	}

	dirty := resumableConfig()
	dirty.CheckpointDir = dir
	res, err := Run(dirty)
	if err != nil || res.ResumedFromTick != 60 {
		t.Fatalf("clean resume failed: %v (tick %d)", err, res.ResumedFromTick)
	}
	reuse := resumableConfig()
	reuse.CheckpointDir = dir
	reuse.Centers = dirty.Centers // still hold the previous run's leases
	if _, err := Run(reuse); err == nil {
		t.Fatal("resume over dirty centers accepted")
	}
}

// TestCheckpointFreeRunUnchanged: without CheckpointDir the new code
// paths are inert — the Result matches a run with checkpointing on,
// and ResumedFromTick stays zero.
func TestCheckpointFreeRunUnchanged(t *testing.T) {
	plain, err := Run(resumableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if plain.ResumedFromTick != 0 {
		t.Fatalf("fresh run reports ResumedFromTick %d", plain.ResumedFromTick)
	}
	ck := resumableConfig()
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEveryTicks = 25
	withCkpt, err := Run(ck)
	if err != nil {
		t.Fatal(err)
	}
	if withCkpt.ResumedFromTick != 0 {
		t.Fatalf("uninterrupted checkpointing run reports ResumedFromTick %d", withCkpt.ResumedFromTick)
	}
	assertResultsEqual(t, plain, withCkpt)
}

// pinnedConfig is a small run that touches every field the checkpoint
// codec writes: two games with stateful predictors, center tracking,
// stochastic outages (full and degraded), grant rejections, partial
// grants, monitoring dropouts, scheduled region blackouts, a scheduled
// center failure, storm control and brownout with a reserve. After tick
// 483 the eu blackout is under way: three outage windows are open,
// storm control has parked six zones' failovers, a rejected zone is
// backed off and the capacity impairment that began at tick 464 has
// not healed. After tick 490 the na-east blackout has engaged brownout.
func pinnedConfig() Config {
	cfg := blackoutConfig()
	second := trace.Generate(trace.Config{Seed: 8, Days: 1, Regions: []trace.Region{
		{ID: 0, Name: "Europe", Location: geo.London, Groups: 3},
		{ID: 1, Name: "US East Coast", Location: geo.NewYork, UTCOffsetHours: -5, Groups: 2},
	}})
	cfg.Workloads = append(cfg.Workloads, Workload{
		Game: mmog.NewGame("shooter", mmog.GenreFPS), Dataset: second,
		Predictor: predict.NewAR(3, 6, 32),
	})
	cfg.TrackCenters = true
	cfg.Failures = []Failure{{Center: "nyc", AtTick: 300, DurationTicks: 12}}
	cfg.Faults = &faults.Config{
		Seed:             11,
		MTBFTicks:        150,
		MTTRTicks:        10,
		DegradedShare:    0.5,
		RejectProb:       0.2,
		PartialGrantProb: 0.1,
		DropoutProb:      0.02,
		ScheduledBlackouts: []faults.RegionBlackout{
			{Region: "eu", Start: 480, Duration: 40},
			{Region: "na-east", Start: 484, Duration: 10},
		},
	}
	cfg.FailoverBudgetPerTick = 1
	cfg.Brownout = true
	cfg.BrownoutReserveFrac = 0.1
	cfg.CheckpointEveryTicks = 100
	return cfg
}

// pinnedCheckpointSHA256 holds the sha256 of each checkpoint file a
// run of pinnedConfig stopped after tick 483 leaves behind (ticks 400
// and 483), of the one a resume from 483 stopped after tick 490
// writes, and of the one a resume from 490 stopped after tick 500
// writes. The last two pin snapshots taken after a restore, so state
// the decoder drops or fails to rebuild shows up there too; by tick
// 500 brownout has ended while the eu blackout goes on.
var pinnedCheckpointSHA256 = map[int]string{
	400: "74ab996011e4d53b79c858fe22dd92abfaebadb3e91de792e9e69aa4623522f5",
	483: "b33be794b1c699d24a0ed934d32e4ac51a80bbcb7c67d41d8f3e2a064c6cdef1",
	490: "a11ca4829bcbdee0ed5893487b02d905ebad3bc28ac5b86791b4e6f9943a2239",
	500: "8965f43830d5cddaedc885cd01d28cac9e909063c95a1b19b1f4205c2adb7fbc",
}

// TestCheckpointBytesPinned pins the engine's checkpoint bytes: every
// checkpoint file of pinnedConfig hashes to the value recorded before
// the engine's run state was last restructured.
func TestCheckpointBytesPinned(t *testing.T) {
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ticks ...int) {
		t.Helper()
		for _, tick := range ticks {
			blob, err := os.ReadFile(mgr.Path(tick))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != pinnedCheckpointSHA256[tick] {
				t.Errorf("checkpoint %d sha256 = %s, want %s: the checkpoint bytes changed", tick, got, pinnedCheckpointSHA256[tick])
			}
		}
	}
	for _, stop := range []int{483, 490, 500} {
		cfg := pinnedConfig()
		cfg.CheckpointDir = dir
		cfg.StopAfterTick = stop
		if _, err := Run(cfg); !errors.Is(err, ErrStopped) {
			t.Fatalf("run stopped after %d returned %v, want ErrStopped", stop, err)
		}
		ticks, err := mgr.Ticks()
		if err != nil {
			t.Fatal(err)
		}
		check(ticks...)
	}
}

// FuzzRestore feeds arbitrary payloads to the engine's checkpoint
// decoder, each over freshly built run state: restore must return an
// error or succeed, never panic. The seed corpus is a real checkpoint
// payload, taken inside a scheduled outage, and a truncated one.
func FuzzRestore(f *testing.F) {
	fresh := func() Config {
		cfg := resumableConfig()
		cfg.Workers = 1
		return cfg
	}
	cfg := fresh()
	cfg.CheckpointDir = f.TempDir()
	cfg.StopAfterTick = 133
	if _, err := Run(cfg); !errors.Is(err, ErrStopped) {
		f.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	mgr, err := checkpoint.NewManager(cfg.CheckpointDir)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := mgr.Latest()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Payload)
	f.Add(snap.Payload[:len(snap.Payload)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		cfg := fresh()
		r, err := newRun(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.pool.Close()
		r.restore(payload)
	})
}
