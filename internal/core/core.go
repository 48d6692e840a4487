// Package core implements the paper's trace-driven resource
// provisioning simulation (Section V). Every two simulated minutes the
// game operator predicts the load of each server group (the number of
// players, converted into a resource demand through the game's
// interaction/update model), requests the missing resources from the
// data-center ecosystem, and lets unneeded leases lapse when their
// time bulk expires. The simulator measures the three metrics of the
// paper:
//
//   - resource over-allocation Ω(t) (Equation 1): the cumulated
//     allocation over the cumulated load, reported here as the
//     percentage allocated *beyond* the load (Ω−100%);
//   - resource under-allocation Υ(t) (Equation 2): the average
//     per-server shortfall, where over-allocation on one server cannot
//     compensate a shortfall on another;
//   - significant under-allocation events: ticks where |Υ| > 1%,
//     i.e. moments when the game play is disrupted.
//
// The static alternative provisions each server group for its peak
// demand up front and never adjusts.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/par"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
	"mmogdc/internal/trace"
)

// SignificantUnderPct is the |Υ| threshold (in percent) above which an
// under-allocation is disruptive (Section V).
const SignificantUnderPct = 1.0

// Workload is one MMOG operated on the ecosystem: a game design (the
// update model and latency tolerance), the population trace of its
// server groups, and the predictor driving its requests.
type Workload struct {
	// Game fixes the update model, resource profile, and latency
	// tolerance.
	Game *mmog.Game
	// Dataset provides the per-server-group player counts.
	Dataset *trace.Dataset
	// Predictor builds one predictor per server group (dynamic mode).
	Predictor predict.Factory
}

// Config parameterizes one simulation run.
type Config struct {
	// Workloads are the games sharing the ecosystem.
	Workloads []Workload
	// Centers is the data-center ecosystem (ignored in static mode).
	Centers []*datacenter.Center
	// Static provisions each server group for its trace-wide peak
	// demand instead of predicting and leasing dynamically.
	Static bool
	// SafetyMargin inflates predicted demand by this fraction before
	// requesting (0 = request exactly the prediction).
	SafetyMargin float64
	// TrackCenters enables the per-center accounting used by the
	// latency experiments (Figs. 13 and 14).
	TrackCenters bool
	// PrioritizeByInteraction orders each tick's resource requests by
	// the game's update-model complexity, most compute-intensive
	// first — the extension the paper proposes as future work in
	// Section V-F ("the impact of prioritizing the resource requests
	// according to the interaction type of the MMOG"). Under capacity
	// contention it hands the steepest demand curves first pick, which
	// is where a shortfall hurts the most.
	PrioritizeByInteraction bool
	// Failures injects scheduled data-center outages: each takes the
	// named center offline (dropping all its leases) at a tick and
	// brings it back after a duration. The game operator re-acquires
	// lost capacity the same tick, excluding the failed center from
	// the retry. AtTick must be >= 0 (tick 0 fires before the
	// bootstrap acquire), DurationTicks must be >= 1, and the named
	// center must exist; Run rejects anything else. Overlapping
	// windows for one center compose through refcounting — the center
	// recovers only when its last window closes.
	Failures []Failure
	// Faults configures the seeded stochastic fault injector
	// (internal/faults): MTBF/MTTR center outages (full or partial),
	// lease-grant rejections and partial grants, and monitoring
	// dropouts. Nil injects nothing. The fault plan is pre-generated
	// from Faults.Seed, so the same seed reproduces a bit-identical
	// Result for any Workers setting.
	Faults *faults.Config
	// FailoverBudgetPerTick caps the failover re-acquisitions performed
	// in any one tick (storm control): when a region blackout drops
	// dozens of zones at once, only the first budget zones (in acquire
	// order) fail over immediately; the rest are deferred by a
	// deterministic jittered backoff of 1–4 ticks so the stampede on
	// the surviving centers is spread out. 0 means unlimited — the
	// legacy same-tick failover for every zone.
	FailoverBudgetPerTick int
	// Brownout enables graceful degradation when the surviving
	// effective capacity cannot cover the demand: instead of letting
	// every zone thrash over the shortage, the engine sheds the
	// lowest-priority zones (the tail of the acquire order) — their
	// leases are released and their acquisitions skipped — until the
	// survivors fit the capacity budget. Result.Resilience accounts the
	// brownout ticks and the player-load shed.
	Brownout bool
	// BrownoutReserveFrac is the fraction of each surviving region's
	// effective capacity held back as reserved headroom while brownout
	// mode decides what fits (0 = spend everything surviving). The
	// reserve absorbs prediction error and aftershocks so the kept
	// zones do not immediately breach again.
	BrownoutReserveFrac float64
	// Workers is the parallelism of the per-zone tick phase: 0 sizes
	// the worker pool by GOMAXPROCS, 1 runs fully sequentially on the
	// caller's goroutine. The result is bit-for-bit identical for any
	// worker count — per-zone work is embarrassingly parallel and the
	// reduce and acquire phases stay sequential in deterministic
	// order.
	Workers int
	// CheckpointDir, when non-empty, makes the run crash-safe: the full
	// engine state is written atomically to this directory every
	// CheckpointEveryTicks ticks, and a run started over a directory
	// holding checkpoints resumes from the newest valid one instead of
	// starting fresh. A resumed run's Result is bit-identical to an
	// uninterrupted run with the same Config. Corrupt checkpoint files
	// are skipped (falling back to the previous good one), never
	// silently loaded. Empty disables checkpointing entirely — the run
	// is then bit-identical to one from before this feature existed.
	CheckpointDir string
	// CheckpointEveryTicks is the checkpoint cadence; 0 defaults to 60
	// ticks (two simulated hours at the paper's 2-minute tick).
	CheckpointEveryTicks int
	// StopAfterTick, when > 0, halts the run right after the named
	// tick completed (and, with CheckpointDir set, after force-writing
	// a checkpoint at that tick). Run returns ErrStopped and no Result.
	// This is the deterministic "kill" of crash-recovery drills: run
	// with StopAfterTick, then rerun without it to resume and finish.
	StopAfterTick int
	// Obs, when non-nil, streams the run's telemetry — per-phase tick
	// timing, provisioning counters mirroring Result.Resilience, and
	// flight-recorder events — into the given observability bundle.
	// Obs is strictly write-only with respect to the simulation: a run
	// with Obs set produces a bit-identical Result to one without, and
	// nil costs nothing on the hot path.
	Obs *obs.Obs
	// Provenance, when > 0, installs a decision log of that capacity
	// on the matcher: every acquire records the ordered candidate
	// ranking with per-candidate dispositions, and (with Obs set) each
	// grant/failover gains a companion "decision" flight-recorder
	// event. Write-only like Obs: the Result is bit-identical with
	// provenance on or off, and 0 disables it entirely.
	Provenance int
}

// Failure is one scheduled data-center outage.
type Failure struct {
	// Center is the failing center's name.
	Center string
	// AtTick is the sample index the outage begins at.
	AtTick int
	// DurationTicks is the outage length in samples.
	DurationTicks int
}

// Result collects the metrics of one run.
type Result struct {
	// Ticks is the number of scored samples.
	Ticks int
	// AvgOverPct is the mean over-allocation percentage per resource
	// (Ω−100%), averaged over ticks with non-zero load. A resource
	// that never sees load has no defined over-allocation ratio and
	// reports math.NaN(); formatting layers render it as "n/a".
	AvgOverPct [datacenter.NumResources]float64
	// AvgUnderPct is the mean under-allocation Υ per resource (<= 0).
	AvgUnderPct [datacenter.NumResources]float64
	// Events is the number of ticks with a significant
	// under-allocation (|Υ| > 1%) on any resource.
	Events int
	// CumEvents is the running number of significant events per tick
	// (Figs. 7 and 10).
	CumEvents []int
	// OverPct and UnderPct are the per-tick Ω−100% and Υ series for
	// the CPU resource (Figs. 8 and 9).
	OverPct  []float64
	UnderPct []float64
	// Unmet counts ticks where the ecosystem could not serve the full
	// request (capacity exhausted within the latency bound).
	Unmet int
	// AvgUnderByGame is the mean CPU under-allocation per game,
	// normalized by that game's own machine count — the per-operator
	// view the interaction-prioritization extension is judged by.
	AvgUnderByGame map[string]float64
	// CenterStats maps center name to its accounting (TrackCenters).
	CenterStats map[string]*CenterStats
	// Resilience accounts the run's fault handling (always set; all
	// zeros when nothing was injected).
	Resilience *Resilience
	// ResumedFromTick is the tick of the checkpoint this run resumed
	// from, 0 when the run started fresh.
	ResumedFromTick int
}

// CenterStats accounts one center's CPU usage over a run.
type CenterStats struct {
	// AvgAllocatedCPU is the mean allocated CPU units over the run.
	AvgAllocatedCPU float64
	// AvgFreeCPU is the mean free CPU units.
	AvgFreeCPU float64
	// AllocatedByRegion splits AvgAllocatedCPU by the requesting
	// region's name (Figs. 13/14 need to know whose demand each
	// center served).
	AllocatedByRegion map[string]float64
}

// regionUsage accumulates CenterStats.AllocatedByRegion in a dense
// center x region table, so the per-tick walk over every live lease
// does no string-keyed map work. Each cell receives the same additions
// in the same order as the map entry it stands for, and a cell added
// to at all (even +0) stands for a present key; flush writes the cells
// into the maps, load reads them back after a checkpoint restore.
type regionUsage struct {
	// row maps a center to its row; centers sharing a name share one.
	row     map[*datacenter.Center]int
	centers []string
	regions []string
	cpu     []float64
	set     []bool
}

// newRegionUsage builds the table over the centers and the zones'
// regions, and points each zone at its region's column.
func newRegionUsage(centers []*datacenter.Center, zones []zoneState) *regionUsage {
	u := &regionUsage{row: make(map[*datacenter.Center]int, len(centers))}
	rowOf := map[string]int{}
	for _, c := range centers {
		r, ok := rowOf[c.Name]
		if !ok {
			r = len(u.centers)
			rowOf[c.Name] = r
			u.centers = append(u.centers, c.Name)
		}
		u.row[c] = r
	}
	colOf := map[string]int{}
	for i := range zones {
		z := &zones[i]
		col, ok := colOf[z.region.Name]
		if !ok {
			col = len(u.regions)
			colOf[z.region.Name] = col
			u.regions = append(u.regions, z.region.Name)
		}
		z.regionCol = col
	}
	u.cpu = make([]float64, len(u.centers)*len(u.regions))
	u.set = make([]bool, len(u.cpu))
	return u
}

// add accounts cpu served by c to the region in column col.
func (u *regionUsage) add(c *datacenter.Center, col int, cpu float64) {
	i := u.row[c]*len(u.regions) + col
	u.cpu[i] += cpu
	u.set[i] = true
}

// flush writes the table into the stats maps.
func (u *regionUsage) flush(stats map[string]*CenterStats) {
	for r, center := range u.centers {
		m := stats[center].AllocatedByRegion
		for col, region := range u.regions {
			if i := r*len(u.regions) + col; u.set[i] {
				m[region] = u.cpu[i]
			}
		}
	}
}

// load reads the table back from the stats maps.
func (u *regionUsage) load(stats map[string]*CenterStats) {
	for r, center := range u.centers {
		m := stats[center].AllocatedByRegion
		for col, region := range u.regions {
			i := r*len(u.regions) + col
			u.cpu[i], u.set[i] = m[region]
		}
	}
}

// zoneState tracks one server group during the simulation. The run
// holds all zones in one flat value slice, indexed by idx — the
// per-tick phases walk them by index, so zone state, partials, and
// accumulators all live in contiguous, preallocated memory.
type zoneState struct {
	// Ledger holds the zone's lease book and rejection backoff. Its Tag
	// is the zone's request/accounting tag ("game/group"), built once
	// at construction — the tick loop must never format it.
	provision.Ledger
	game   *mmog.Game
	group  *trace.Group
	region trace.Region
	// regionCol is the region's column in the run's regionUsage.
	regionCol int
	predictor predict.Predictor
	// idx is the zone's position in the canonical zone order — the
	// index of its slot in the per-tick partials.
	idx int
	// gameIdx indexes the run's game list for the flat per-game
	// accumulators.
	gameIdx int
	// static allocation (static mode only).
	staticAlloc datacenter.Vector
	// home is the center hosting the zone's static fleet (static mode
	// with centers configured); its outages darken the allocation.
	home *datacenter.Center
	// lastObs carries the last monitoring sample that actually
	// arrived; dropouts feed it to the predictor instead (LOCF).
	lastObs float64
	// pendingLost and failoverAt implement storm control: when the
	// per-tick failover budget is exhausted, the centers that dropped
	// this zone are parked here and the failover re-acquisition runs at
	// tick failoverAt (deterministically jittered).
	pendingLost []string
	failoverAt  int
}

// zonePartial is one zone's contribution to a tick, produced by the
// parallel per-zone phase and folded in by the sequential reduce. All
// fields are pure functions of zone-local state, so their values do
// not depend on the worker count or execution order.
type zonePartial struct {
	// alloc is the allocation in force at the scoring instant.
	alloc datacenter.Vector
	// load is the actual resource demand at the scoring instant.
	load datacenter.Vector
	// need is the gap to request from the ecosystem for the next tick
	// (zero in static mode and on the final tick).
	need datacenter.Vector
	// dropped flags a monitoring dropout at this tick (the sample was
	// carried forward).
	dropped bool
}

// workerArena is one pool worker's private scratch for the parallel
// per-zone phase, padded so no two workers share a cache line. It only
// carries quantities whose combination is order-independent (integer
// counts); every float fold stays in the sequential reduce, which is
// what keeps Result bit-identical across worker counts.
type workerArena struct {
	// dropped counts the monitoring dropouts this worker observed in
	// the current tick.
	dropped int64
	_       [56]byte // pad to a 64-byte cache line
}

// failoverJitter spreads deferred failovers over the next 1–4 ticks
// with a stateless hash of (zone, tick) — deterministic for any worker
// count (the acquire phase is sequential), different per zone and per
// deferral so a blackout's victims do not re-stampede in lockstep.
func failoverJitter(zone, t int) int {
	h := uint64(zone)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9 ^ 0x5707bac0ff
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h & 3) // 0..3 extra ticks beyond the minimum 1
}

// sanitizePrediction guards the simulation against misbehaving
// predictors: negative, NaN, or infinite forecasts are treated as
// zero demand (the operator requests nothing rather than poisoning
// the allocation accounting).
func sanitizePrediction(v float64) float64 {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// run is the state of one simulation: the zone arena, the fault plan,
// the metric accumulators, the outage tracker and the per-tick scratch.
// Run drives it through one method per pipeline stage, and snapshot and
// restore (checkpoint.go) encode its fields directly: the run state is
// the checkpoint state.
type run struct {
	cfg *Config
	// zones is the flat zone-state arena: one value slice in canonical
	// order, never reallocated after newRun's setup loop (pointers into
	// it are only taken afterwards). gameNames lists the distinct games
	// in workload order; the per-game accumulators are flat slices
	// indexed by zoneState.gameIdx.
	zones     []zoneState
	gameNames []string
	samples   int
	start     time.Time
	tick      time.Duration

	centersByName map[string]*datacenter.Center
	plan          *faults.Plan
	matcher       *ecosystem.Matcher
	// acquireOrder decides who gets first pick when capacity is
	// contended: submission order, or with interaction prioritization
	// the most compute-intensive games first.
	acquireOrder []int
	tagToZone    map[string]int

	res     *Result
	resil   *Resilience
	tracker *outageTracker
	ro      *runObs
	// usage holds the live AllocatedByRegion accumulators (nil when the
	// run does not track them per tick).
	usage *regionUsage

	// Per-resource accumulators for the averages.
	overSum, underSum [datacenter.NumResources]float64
	overTicks         [datacenter.NumResources]int
	// Per-game CPU accumulators, zeroed in place every tick except
	// gameUnder. gameShortSet replicates the old scratch map's presence
	// semantics: a game accumulates under-allocation this tick only if
	// some zone actually fell short.
	gameAlloc, gameShort, gameUnder []float64
	gameShortSet                    []bool

	// The observe stage fans the per-zone work out over pool: each zone
	// writes its own partial, each worker its own cache-line arena.
	// observeRange is the fan-out body, a method value bound once in
	// newRun so a tick allocates no closure; curTick, curNow and
	// curFinal are its arguments, written by the sequential control path
	// before each fan-out.
	pool         *par.Pool
	partials     []zonePartial
	arenas       []workerArena
	observeRange func(lo, hi, w int)
	curTick      int
	curNow       time.Time
	curFinal     bool

	// lostCenters[i] names the centers that dropped zone i's leases at
	// the current tick — the same-tick failover re-acquires from
	// everywhere else. failoversNow counts the tick's failovers against
	// the storm-control budget.
	lostCenters  [][]string
	failoversNow int
	// zoneShed marks the zones whose demand brownout deliberately leaves
	// unserved this tick (nil without brownout); brownoutActive drives
	// the transition events.
	zoneShed       []bool
	brownoutActive bool

	ckpt      *checkpoint.Manager
	ckptEvery int
}

// Run executes the simulation and returns its metrics: set up, resume
// from a checkpoint or bootstrap, one tick per remaining sample, finish.
func Run(cfg Config) (*Result, error) {
	r, err := newRun(&cfg)
	if err != nil {
		return nil, err
	}
	defer r.pool.Close()
	resumed, err := r.resume()
	if err != nil {
		return nil, err
	}
	if resumed == 0 {
		r.bootstrap()
	}
	for t := resumed + 1; t < r.samples; t++ {
		if err := r.step(t); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// newRun validates cfg and builds the run state at tick 0: zones and
// their predictors, the fault plan, the matcher, the accumulators and
// the worker pool.
func newRun(cfg *Config) (*run, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	r := &run{cfg: cfg}
	gameNames := map[string]bool{}
	for gi, w := range cfg.Workloads {
		if w.Game == nil || w.Dataset == nil {
			return nil, fmt.Errorf("core: workload needs game and dataset")
		}
		// Per-game accounting (gameAlloc, AvgUnderByGame, ...) is keyed
		// by name; two games sharing one would silently merge.
		if gameNames[w.Game.Name] {
			return nil, fmt.Errorf("core: duplicate game name %q across workloads", w.Game.Name)
		}
		gameNames[w.Game.Name] = true
		r.gameNames = append(r.gameNames, w.Game.Name)
		if r.samples == 0 {
			r.samples = w.Dataset.Samples()
		} else if w.Dataset.Samples() != r.samples {
			return nil, fmt.Errorf("core: datasets disagree on length")
		}
		regions := map[int]trace.Region{}
		for _, reg := range w.Dataset.Regions {
			regions[reg.ID] = reg
		}
		for _, g := range w.Dataset.Groups {
			region := regions[g.RegionID]
			z := zoneState{
				Ledger: provision.Ledger{
					Tag:           fmt.Sprintf("%s/%s", w.Game.Name, g.Name()),
					Origin:        region.Location,
					MaxDistanceKm: w.Game.LatencyKm,
				},
				game:    w.Game,
				group:   g,
				region:  region,
				idx:     len(r.zones),
				gameIdx: gi,
			}
			if !cfg.Static {
				if w.Predictor == nil {
					return nil, fmt.Errorf("core: dynamic mode needs a predictor for game %s", w.Game.Name)
				}
				z.predictor = w.Predictor()
			}
			r.zones = append(r.zones, z)
		}
	}
	if r.samples < 2 {
		return nil, fmt.Errorf("core: need at least 2 samples")
	}
	zones := r.zones
	r.centersByName = map[string]*datacenter.Center{}
	for _, c := range cfg.Centers {
		r.centersByName[c.Name] = c
	}
	for _, f := range cfg.Failures {
		if f.AtTick < 0 {
			return nil, fmt.Errorf("core: failure of %q at negative tick %d", f.Center, f.AtTick)
		}
		if f.DurationTicks < 1 {
			return nil, fmt.Errorf("core: failure of %q needs DurationTicks >= 1, got %d", f.Center, f.DurationTicks)
		}
		if r.centersByName[f.Center] == nil {
			return nil, fmt.Errorf("core: failure names unknown center %q", f.Center)
		}
	}
	if cfg.FailoverBudgetPerTick < 0 {
		return nil, fmt.Errorf("core: FailoverBudgetPerTick must be >= 0, got %d", cfg.FailoverBudgetPerTick)
	}
	if cfg.BrownoutReserveFrac < 0 || cfg.BrownoutReserveFrac >= 1 {
		return nil, fmt.Errorf("core: BrownoutReserveFrac must be in [0,1), got %v", cfg.BrownoutReserveFrac)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if cfg.Faults.Enabled() {
			names := make([]string, len(cfg.Centers))
			for i, c := range cfg.Centers {
				names[i] = c.Name
			}
			fcfg := *cfg.Faults
			if fcfg.CorrelatedEnabled() && fcfg.Regions == nil {
				// Derive the failure domains from the centers' geography:
				// centers sharing a continental region share a domain.
				fcfg.Regions = make(map[string]string, len(cfg.Centers))
				for _, c := range cfg.Centers {
					fcfg.Regions[c.Name] = geo.RegionOf(c.Location)
				}
			}
			r.plan = faults.NewPlan(fcfg, names, r.samples)
		}
	}

	if cfg.Static {
		// Static provisioning reproduces the industry practice the
		// paper describes: a dedicated infrastructure sized up front
		// for each server group's peak demand.
		for i := range zones {
			z := &zones[i]
			peak := 0.0
			for _, v := range z.group.Load.Values {
				if v > peak {
					peak = v
				}
			}
			z.staticAlloc = provision.Vector(z.game.DemandForEntities(peak))
		}
		// With centers configured, each static fleet lives in a home
		// center (round-robin) and darkens with its outages — the
		// dedicated-infrastructure counterpart of the resilience
		// sweep, where dynamic provisioning fails over but a static
		// deployment cannot.
		if len(cfg.Centers) > 0 {
			for i := range zones {
				zones[i].home = cfg.Centers[i%len(cfg.Centers)]
			}
		}
	}

	r.matcher = ecosystem.NewMatcher(cfg.Centers)
	if r.plan != nil {
		r.matcher.SetFaultInjector(r.plan)
	}
	if cfg.Provenance > 0 {
		r.matcher.SetDecisionLog(ecosystem.NewDecisionLog(cfg.Provenance))
	}
	r.res = &Result{CenterStats: map[string]*CenterStats{}}
	if cfg.TrackCenters {
		for _, c := range cfg.Centers {
			r.res.CenterStats[c.Name] = &CenterStats{AllocatedByRegion: map[string]float64{}}
		}
		if !cfg.Static {
			r.usage = newRegionUsage(cfg.Centers, zones)
		}
	}
	// The per-tick series are appended to once per scored tick;
	// preallocating their full capacity keeps the tick loop free of
	// append growth (a resume replaces them with the restored slices).
	r.res.CumEvents = make([]int, 0, r.samples-1)
	r.res.OverPct = make([]float64, 0, r.samples-1)
	r.res.UnderPct = make([]float64, 0, r.samples-1)

	r.gameAlloc = make([]float64, len(r.gameNames))
	r.gameShort = make([]float64, len(r.gameNames))
	r.gameShortSet = make([]bool, len(r.gameNames))
	r.gameUnder = make([]float64, len(r.gameNames))

	r.start = zones[0].group.Load.Start
	r.tick = zones[0].group.Load.Tick

	// With interaction prioritization the acquire order is a stable
	// sort of the index slice — the identical permutation the old
	// pointer-slice sort produced.
	r.acquireOrder = make([]int, len(zones))
	for i := range r.acquireOrder {
		r.acquireOrder[i] = i
	}
	if cfg.PrioritizeByInteraction {
		sort.SliceStable(r.acquireOrder, func(i, j int) bool {
			return zones[r.acquireOrder[i]].game.Update > zones[r.acquireOrder[j]].game.Update
		})
	}

	// Each tick splits into three phases. The observe stage fans the
	// per-zone work — predictor Observe/Predict, demand conversion,
	// per-zone allocation scoring — out over this pool; every datum it
	// touches is zone-local (predictor state, leases) or read-only
	// (trace, game model), so zones never contend. The reduce folds the
	// partials sequentially in canonical zone order, and the acquire
	// stage submits the contended resource requests sequentially in
	// acquire order, which keeps Result bit-for-bit independent of the
	// worker count.
	r.pool = par.New(cfg.Workers)
	r.partials = make([]zonePartial, len(zones))
	r.arenas = make([]workerArena, r.pool.Workers())
	r.observeRange = r.observeZones

	r.resil = &Resilience{Availability: map[string]float64{}}
	r.res.Resilience = r.resil
	r.tracker = newOutageTracker(cfg.Centers, r.resil)
	r.ro = newRunObs(cfg.Obs)

	r.tagToZone = make(map[string]int, len(zones))
	for i := range zones {
		r.tagToZone[zones[i].Tag] = i
	}
	r.lostCenters = make([][]string, len(zones))
	if cfg.Brownout && !cfg.Static {
		r.zoneShed = make([]bool, len(zones))
	}
	r.ckptEvery = cfg.CheckpointEveryTicks
	if r.ckptEvery <= 0 {
		r.ckptEvery = 60
	}
	return r, nil
}

// resume adopts the newest valid checkpoint (skipping corrupt files)
// when the run has a checkpoint directory, and returns the tick it was
// taken after; 0 means a fresh run.
func (r *run) resume() (int, error) {
	if r.cfg.CheckpointDir == "" {
		return 0, nil
	}
	var err error
	if r.ckpt, err = checkpoint.NewManager(r.cfg.CheckpointDir); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	snap, err := r.ckpt.Latest()
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	tick, err := r.restore(snap.Payload)
	if err != nil {
		return 0, err
	}
	r.res.ResumedFromTick = tick
	r.ro.resumed(tick)
	return tick, nil
}

// bootstrap runs unscored tick 0 of a fresh run: the tick-0 outages
// fire, so a center down from the start never hands out leases, and in
// dynamic mode the operator observes the initial load and provisions
// for it, so the simulation does not begin with an empty allocation
// (game sessions do not start cold mid-operation). It uses the tick's
// own observe and acquire stages: on the empty lease books the observe
// stage's request is exactly the predicted demand.
func (r *run) bootstrap() {
	r.applyFailures(0)
	if r.cfg.Static {
		return
	}
	r.ro.beginBootstrap()
	r.observe(0, r.start, false)
	r.foldDropped(0)
	for _, zi := range r.acquireOrder {
		r.acquireZone(zi, 0, r.start)
	}
	r.ro.endBootstrap()
}

// step runs scored tick t: failures, lease expiry, the parallel observe
// stage, the sequential reduce, then — in dynamic mode before the final
// tick — brownout, recovery tracking and the acquire stage, and last
// the checkpoint.
func (r *run) step(t int) error {
	ro := r.ro
	tickStart := ro.now()
	ro.beginTick(t, "tick", tickStart)
	now := r.start.Add(time.Duration(t) * r.tick)
	r.applyFailures(t)
	if !r.cfg.Static {
		r.matcher.Expire(now)
	}
	final := t == r.samples-1
	phaseStart := ro.now()
	ro.beginObserve(phaseStart)
	r.observe(t, now, final)
	observeDone := ro.now()
	ro.observeDone(phaseStart, observeDone)

	r.foldDropped(t)
	allocCPU, loadCPU := r.reduce(t)
	reduceDone := ro.now()
	ro.reduceDone(observeDone, reduceDone)

	if !r.cfg.Static && !final {
		ro.beginAcquireSpan(reduceDone)
		r.brownout(t, loadCPU)
		r.tracker.trackRecovery(t, r.brownoutActive)
		r.acquire(t, now)
		ro.acquireDone(reduceDone, ro.now())
	}
	// Checkpoints land at end-of-tick boundaries: everything tick t did
	// — metrics, leases, predictor updates, backoff — is in the
	// snapshot, and the resumed run re-enters the loop at t+1.
	if err := r.saveCheckpoint(t); err != nil {
		return err
	}
	ro.tickDone(t, tickStart, ro.now(), allocCPU, loadCPU,
		r.res.OverPct[len(r.res.OverPct)-1], r.res.UnderPct[len(r.res.UnderPct)-1], r.pool)
	if r.cfg.StopAfterTick > 0 && t >= r.cfg.StopAfterTick {
		return ErrStopped
	}
	return nil
}

// applyFailures fires the scheduled and injected outages and
// recoveries due at tick t: the capacity vanishes, the operator fails
// the lost leases over within the same tick. Recoveries apply first so
// windows meeting at one tick compose through the refcount.
func (r *run) applyFailures(t int) {
	for i := range r.lostCenters {
		r.lostCenters[i] = r.lostCenters[i][:0]
	}
	ro, plan := r.ro, r.plan
	for _, f := range r.cfg.Failures {
		if t == f.AtTick+f.DurationTicks {
			r.centersByName[f.Center].Recover()
			ro.recovery(t, f.Center, 1)
		}
	}
	// Region-level events bracket the member centers' own: the
	// blackout/recover markers fire before the per-center fail and
	// recover records they explain.
	for _, b := range plan.BlackoutRecoveriesAt(t) {
		ro.regionRecover(t, b.Region)
	}
	for _, o := range plan.RecoveriesAt(t) {
		if c := r.centersByName[o.Center]; o.Fraction >= 1 {
			c.Recover()
		} else {
			c.Restore(o.Fraction)
		}
		ro.recovery(t, o.Center, o.Fraction)
	}
	for _, f := range r.cfg.Failures {
		if t == f.AtTick {
			r.noteLost(r.centersByName[f.Center].Fail(), f.Center)
			ro.outage(t, f.Center, 1)
		}
	}
	for _, b := range plan.BlackoutsAt(t) {
		r.resil.RegionBlackouts++
		ro.regionBlackout(t, b.Region)
	}
	for _, o := range plan.FailuresAt(t) {
		if c := r.centersByName[o.Center]; o.Fraction >= 1 {
			r.noteLost(c.Fail(), o.Center)
		} else {
			r.noteLost(c.Degrade(o.Fraction), o.Center)
		}
		ro.outage(t, o.Center, o.Fraction)
	}
	r.tracker.observe(t)
}

// noteLost records center in the lost list of every zone whose lease
// it dropped.
func (r *run) noteLost(dropped []*datacenter.Lease, center string) {
	for _, l := range dropped {
		zi, ok := r.tagToZone[l.Tag]
		if !ok {
			continue
		}
		if !slices.Contains(r.lostCenters[zi], center) {
			r.lostCenters[zi] = append(r.lostCenters[zi], center)
		}
	}
}

// observe runs the parallel per-zone stage of tick t: chunked
// contiguous ranges give each worker exclusive runs of the partials
// slice (no false sharing) and amortize the work-stealing cursor over
// whole chunks.
func (r *run) observe(t int, now time.Time, final bool) {
	r.curTick, r.curNow, r.curFinal = t, now, final
	for w := range r.arenas {
		r.arenas[w].dropped = 0
	}
	r.pool.ForRanges(len(r.zones), 0, r.observeRange)
}

// observeZones is the observe stage's fan-out body over zones [lo, hi).
func (r *run) observeZones(lo, hi, w int) {
	for i := lo; i < hi; i++ {
		r.observeZone(i, w)
	}
}

// observeZone is one zone's share of the observe stage on worker w:
// score the allocation in force against the actual demand, observe the
// new sample, and size the request closing the gap to the predicted
// next demand. Monitoring dropouts are decided by a stateless hash of
// (seed, zone, tick), so parallel workers never contend on a random
// stream.
func (r *run) observeZone(i, w int) {
	z := &r.zones[i]
	sp := r.ro.zoneSpan(z.Tag, r.curTick, w)
	defer sp.End()
	pt := &r.partials[i]
	if r.cfg.Static {
		pt.alloc = z.staticAlloc
		if z.home != nil {
			pt.alloc = z.staticAlloc.Scale(z.home.AvailableFraction())
		}
	} else {
		pt.alloc = z.Active(r.curNow)
	}
	raw := z.group.Load.At(r.curTick)
	loadVal := raw
	if r.plan.DropSample(z.idx, r.curTick) || math.IsNaN(raw) {
		pt.dropped = true
		r.arenas[w].dropped++
		if math.IsNaN(raw) {
			// The sample is missing from the trace itself; the
			// carried-forward observation is the best load estimate
			// available for scoring.
			loadVal = z.lastObs
		}
	} else {
		pt.dropped = false
		z.lastObs = raw
	}
	pt.load = provision.Vector(z.game.DemandForEntities(loadVal))
	pt.need = datacenter.Vector{}
	if r.cfg.Static || r.curFinal {
		return
	}
	// Observe tick t (the last sample that arrived — dropouts carry the
	// previous observation forward so the predictor state never ingests
	// a hole), predict tick t+1. The request is sized against the
	// allocation surviving to the next scoring instant, so leases renew
	// before they lapse.
	z.predictor.Observe(z.lastObs)
	predicted := sanitizePrediction(z.predictor.Predict())
	want := provision.Vector(z.game.DemandForEntities(predicted * (1 + r.cfg.SafetyMargin)))
	have := z.At(r.curNow.Add(r.tick))
	pt.need = want.Sub(have).ClampNonNegative()
}

// foldDropped counts the observe stage's monitoring dropouts: an
// integer sum of the per-worker arena counters, order-independent by
// construction. The per-zone walk for dropout events only runs when
// telemetry wants them.
func (r *run) foldDropped(t int) {
	var n int64
	for w := range r.arenas {
		n += r.arenas[w].dropped
	}
	r.resil.DroppedSamples += int(n)
	if r.ro != nil && n > 0 {
		for i := range r.zones {
			if r.partials[i].dropped {
				r.ro.droppedSample(t, r.zones[i].Tag)
			}
		}
	}
}

// reduce folds tick t's per-zone partials in canonical zone order —
// float summation order is fixed, so the metrics do not depend on the
// worker count — and returns the tick's total CPU allocation and load.
func (r *run) reduce(t int) (allocCPU, loadCPU float64) {
	var alloc, load [datacenter.NumResources]float64
	var shortfall [datacenter.NumResources]float64
	for i := range r.zones {
		gi := r.zones[i].gameIdx
		a, l := r.partials[i].alloc, r.partials[i].load
		for k := 0; k < int(datacenter.NumResources); k++ {
			alloc[k] += a[k]
			load[k] += l[k]
			if d := a[k] - l[k]; d < 0 {
				shortfall[k] += d
			}
		}
		r.gameAlloc[gi] += a[datacenter.CPU]
		if d := a[datacenter.CPU] - l[datacenter.CPU]; d < 0 {
			r.gameShort[gi] += d
			r.gameShortSet[gi] = true
		}
	}
	// M in Equation 2 is the number of machines participating in the
	// game session: the machine-equivalents the allocation occupies
	// (one machine provides one CPU unit).
	machines := math.Ceil(alloc[datacenter.CPU])
	if machines < 1 {
		machines = 1
	}
	res := r.res
	event := false
	worstUnder := 0.0
	for k := 0; k < int(datacenter.NumResources); k++ {
		if load[k] > 0 {
			r.overSum[k] += (alloc[k]/load[k] - 1) * 100
			r.overTicks[k]++
		}
		u := shortfall[k] / machines * 100
		r.underSum[k] += u
		if u < -SignificantUnderPct {
			event = true
		}
		if u < worstUnder {
			worstUnder = u
		}
	}
	if event {
		res.Events++
		r.ro.breach(t, worstUnder)
	}
	r.tracker.serviceHealthy(t, !event)
	res.CumEvents = append(res.CumEvents, res.Events)
	if load[datacenter.CPU] > 0 {
		res.OverPct = append(res.OverPct, (alloc[datacenter.CPU]/load[datacenter.CPU]-1)*100)
	} else {
		res.OverPct = append(res.OverPct, 0)
	}
	res.UnderPct = append(res.UnderPct, shortfall[datacenter.CPU]/machines*100)
	res.Ticks++

	// Per-game under-allocation: only games where some zone actually
	// fell short this tick accumulate; the accumulators reset in place.
	for gi := range r.gameAlloc {
		if r.gameShortSet[gi] {
			m := math.Ceil(r.gameAlloc[gi])
			if m < 1 {
				m = 1
			}
			r.gameUnder[gi] += r.gameShort[gi] / m * 100
		}
		r.gameAlloc[gi], r.gameShort[gi], r.gameShortSet[gi] = 0, 0, false
	}

	// Account center usage.
	if r.cfg.TrackCenters && !r.cfg.Static {
		for _, c := range r.cfg.Centers {
			cs := res.CenterStats[c.Name]
			cs.AvgAllocatedCPU += c.Allocated()[datacenter.CPU]
			cs.AvgFreeCPU += c.Free()[datacenter.CPU]
		}
		// The observe stage's Active(now) left exactly the leases active
		// at now in every book.
		for i := range r.zones {
			z := &r.zones[i]
			for _, l := range z.Leases() {
				r.usage.add(l.Center, z.regionCol, l.Alloc[datacenter.CPU])
			}
		}
	}
	return alloc[datacenter.CPU], load[datacenter.CPU]
}

// brownout sheds load at tick t when the surviving effective capacity —
// minus the reserve held back per failure domain for failover headroom
// — cannot cover the tick's CPU demand: the lowest-priority zones are
// shed outright instead of letting every zone thrash over the
// shortfall. The shed set is recomputed each brownout tick from the
// live acquire order, so zones rejoin as capacity returns.
func (r *run) brownout(t int, demand float64) {
	if r.zoneShed == nil {
		return
	}
	budget := 0.0
	for _, c := range r.cfg.Centers {
		budget += c.EffectiveCapacity()[datacenter.CPU]
	}
	budget *= 1 - r.cfg.BrownoutReserveFrac
	if demand > budget {
		r.resil.BrownoutTicks++
		r.ro.brownoutTick()
		if !r.brownoutActive {
			r.brownoutActive = true
			r.ro.brownoutTransition(t, true, demand-budget)
		}
		kept := 0.0
		for _, zi := range r.acquireOrder {
			z := &r.zones[zi]
			zl := r.partials[zi].load[datacenter.CPU]
			// Always keep the highest-priority zone: shedding
			// everything serves no one.
			if kept+zl <= budget || kept == 0 {
				kept += zl
				r.zoneShed[zi] = false
				continue
			}
			r.zoneShed[zi] = true
			released := z.ReleaseAll()
			if released > 0 || z.lastObs > 0 {
				r.resil.ShedLeases += released
				r.resil.ShedPlayerTicks += z.lastObs
				r.ro.shed(t, z.Tag, z.lastObs, released)
			}
		}
	} else if r.brownoutActive {
		r.brownoutActive = false
		r.ro.brownoutTransition(t, false, 0)
		clear(r.zoneShed)
	}
}

// acquire leases tick t's per-zone gaps in acquire order — capacity
// contention resolves exactly as in the sequential engine — and counts
// the tick unmet when some zone's demand went unserved.
func (r *run) acquire(t int, now time.Time) {
	r.failoversNow = 0
	anyUnmet := false
	for _, zi := range r.acquireOrder {
		if r.acquireZone(zi, t, now) {
			anyUnmet = true
		}
	}
	if anyUnmet {
		r.res.Unmet++
		r.ro.unmetTick()
	}
}

// acquireZone is zone zi's acquire step at tick t and reports whether
// the zone's demand went (partly) unserved. The gap of a zone whose
// leases died with a failed center this tick already includes the
// loss, so the same acquisition doubles as the failover re-acquisition
// — excluding the centers that dropped it.
func (r *run) acquireZone(zi, t int, now time.Time) (unmet bool) {
	z := &r.zones[zi]
	if r.zoneShed != nil && r.zoneShed[zi] {
		// Shed in brownout: the demand is deliberately unserved, and any
		// parked failover is moot — the leases are gone.
		z.pendingLost = z.pendingLost[:0]
		return z.lastObs > 0
	}
	lost := r.lostCenters[zi]
	need := r.partials[zi].need
	if len(z.pendingLost) > 0 && t >= z.failoverAt {
		// A deferred failover comes due: fold the parked centers into
		// this tick's exclusion list.
		for _, name := range z.pendingLost {
			if !slices.Contains(lost, name) {
				lost = append(lost, name)
			}
		}
		r.lostCenters[zi] = lost
		z.pendingLost = z.pendingLost[:0]
	}
	if len(lost) == 0 && z.Waiting(t) {
		// Backed off after injected rejections: don't hammer the
		// ecosystem; the demand goes unserved this tick. A failover
		// overrides the backoff — lost capacity is urgent.
		return !need.IsZero()
	}
	if need.IsZero() {
		return false
	}
	budget := r.cfg.FailoverBudgetPerTick
	if len(lost) > 0 && budget > 0 && r.failoversNow >= budget {
		// Storm control: the per-tick failover budget is spent — park
		// the lost centers and come back after a short deterministic
		// jitter, so a region blackout does not stampede every zone
		// onto the survivors at once.
		for _, name := range lost {
			if !slices.Contains(z.pendingLost, name) {
				z.pendingLost = append(z.pendingLost, name)
			}
		}
		z.failoverAt = t + 1 + failoverJitter(zi, t)
		r.resil.FailoversDeferred++
		r.ro.failoverDeferred(t, z.Tag, z.failoverAt)
		return true
	}
	retry := z.Retrying()
	asp := r.ro.beginZoneAcquire(t, z.Tag, lost, retry)
	if retry {
		r.resil.Retries++
		r.ro.retried(t, z.Tag, asp)
	}
	leases, short, out := z.Acquire(r.matcher, need, lost, now, t)
	r.resil.Rejections += out.Rejections
	r.resil.PartialGrants += out.PartialGrants
	r.ro.acquired(t, z.Tag, leases, out, lost, asp)
	if len(lost) > 0 {
		r.failoversNow++
		r.resil.Failovers++
		r.resil.FailoverLeases += len(leases)
	}
	return !short.IsZero()
}

// saveCheckpoint writes the state after tick t when t is on the
// checkpoint cadence or is the StopAfterTick tick.
func (r *run) saveCheckpoint(t int) error {
	if r.ckpt == nil || (t%r.ckptEvery != 0 && t != r.cfg.StopAfterTick) {
		return nil
	}
	ro := r.ro
	encStart := ro.now()
	payload, err := r.snapshot(t)
	if err != nil {
		return err
	}
	encDone := ro.now()
	if err := r.ckpt.Save(t, payload); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ro.checkpointed(t, len(payload), encStart, encDone, ro.now())
	return nil
}

// finish turns the accumulators into the run's Result.
func (r *run) finish() *Result {
	res := r.res
	r.tracker.finish(res.Ticks)
	ticks := float64(res.Ticks)
	res.AvgUnderByGame = map[string]float64{}
	for gi, name := range r.gameNames {
		res.AvgUnderByGame[name] = r.gameUnder[gi] / ticks
	}
	for k := 0; k < int(datacenter.NumResources); k++ {
		if r.overTicks[k] > 0 {
			res.AvgOverPct[k] = r.overSum[k] / float64(r.overTicks[k])
		} else {
			res.AvgOverPct[k] = math.NaN()
		}
		res.AvgUnderPct[k] = r.underSum[k] / ticks
	}
	if r.cfg.TrackCenters {
		if r.usage != nil {
			r.usage.flush(res.CenterStats)
		}
		for _, cs := range res.CenterStats {
			cs.AvgAllocatedCPU /= ticks
			cs.AvgFreeCPU /= ticks
			for k := range cs.AllocatedByRegion {
				cs.AllocatedByRegion[k] /= ticks
			}
		}
	}
	r.ro.finish(res)
	return res
}

// DistanceClassShares buckets each center's served CPU by the distance
// between the requesting region and the center, in the five latency
// classes of Section V-E — the data behind Fig. 13.
func DistanceClassShares(res *Result, centers []*datacenter.Center, regions []trace.Region) map[geo.LatencyClass]map[string]float64 {
	regionLoc := map[string]geo.Point{}
	for _, r := range regions {
		regionLoc[r.Name] = r.Location
	}
	out := map[geo.LatencyClass]map[string]float64{}
	for _, c := range centers {
		cs := res.CenterStats[c.Name]
		if cs == nil {
			continue
		}
		for regionName, cpu := range cs.AllocatedByRegion {
			loc, ok := regionLoc[regionName]
			if !ok {
				continue
			}
			class := geo.ClassOf(geo.DistanceKm(loc, c.Location))
			if out[class] == nil {
				out[class] = map[string]float64{}
			}
			out[class][c.Name] += cpu
		}
	}
	return out
}
