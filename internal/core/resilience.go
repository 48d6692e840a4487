package core

import (
	"mmogdc/internal/datacenter"
)

// Resilience accounts a run's fault handling: what went wrong (outage
// windows, injected rejections, monitoring dropouts) and how well the
// provisioning loop degraded gracefully (failovers, retries, recovery
// times, per-center availability). Every Result carries one; without
// fault injection it is simply all zeros.
type Resilience struct {
	// Outages counts distinct unhealthy windows per center. Scheduled
	// failures and injected faults that overlap on one center merge
	// into a single window (the refcounted fail/degrade state decides
	// health, not the event list).
	Outages int
	// FullOutages and PartialOutages classify the windows: full if the
	// center was completely offline at any point inside the window,
	// partial if it only ever lost a fraction of its machines. They
	// sum to Outages.
	FullOutages    int
	PartialOutages int
	// CapacityRecovered counts windows whose center returned to full
	// health within the run.
	CapacityRecovered int
	// ServiceRecovered counts windows after whose start the game
	// returned to undisrupted play (a tick free of significant
	// under-allocation); MeanTimeToRecoverTicks averages the ticks
	// that took. Capacity coming back and service healing are
	// different events — a failover can heal service while the center
	// is still dark.
	ServiceRecovered       int
	MeanTimeToRecoverTicks float64
	// Failovers counts zone-ticks that re-acquired capacity lost to a
	// failed or degraded center (excluding that center from the
	// retry); FailoverLeases the leases those re-acquisitions won.
	Failovers      int
	FailoverLeases int
	// Retries counts backed-off re-attempts after injected grant
	// rejections (the bounded exponential-backoff path).
	Retries int
	// Rejections and PartialGrants count what the fault injector did
	// to the run's grant attempts.
	Rejections    int
	PartialGrants int
	// DroppedSamples counts monitoring samples that never arrived and
	// were carried forward into the predictors.
	DroppedSamples int
	// CapacityLostCPUTicks tick-weights the CPU capacity unavailable
	// to the ecosystem: one unit means one CPU's worth of machines was
	// gone for one tick.
	CapacityLostCPUTicks float64
	// RegionBlackouts counts whole-region blackout windows the
	// correlated fault model injected (each downs every center of one
	// failure domain at once).
	RegionBlackouts int
	// FailoversDeferred counts failover re-acquisitions the per-tick
	// failover budget pushed to a later, jittered tick (storm control)
	// instead of letting a blackout stampede the survivors.
	FailoversDeferred int
	// BrownoutTicks counts ticks spent in brownout mode: surviving
	// effective capacity (minus the per-region reserve) could not cover
	// the demand, so the lowest-priority zones were shed.
	BrownoutTicks int
	// ShedLeases counts leases released by brownout shedding;
	// ShedPlayerTicks accumulates the player-load (players x ticks)
	// whose demand went deliberately unserved while shed.
	ShedLeases      int
	ShedPlayerTicks float64
	// TimeToFullRecoveryTicks is the longest stretch from a capacity
	// impairment's onset (any center down or degraded, or brownout
	// engaged) to the tick full capacity and normal service resumed;
	// 0 when capacity was never impaired or never fully recovered.
	TimeToFullRecoveryTicks int
	// Availability maps each center to the mean fraction of its
	// capacity available over the scored ticks (1 = never impaired).
	Availability map[string]float64
}

// outageWindow is one contiguous unhealthy stretch of a center.
type outageWindow struct {
	start   int
	sawFull bool
}

// outageTracker folds per-tick center health into the Resilience
// metrics. It runs entirely on the sequential control path of the
// simulation, so its state needs no synchronization.
type outageTracker struct {
	centers []*datacenter.Center
	res     *Resilience
	// open holds the in-progress window per center index.
	open []*outageWindow
	// openWindows counts the non-nil entries of open; restore rebuilds
	// it from the decoded windows.
	openWindows int
	// pending holds start ticks of windows still waiting for the
	// service to heal (a tick without a significant event).
	pending []int
	ttrSum  float64
	// capLossStart is the tick the current capacity impairment began,
	// -1 when capacity is whole.
	capLossStart int
}

func newOutageTracker(centers []*datacenter.Center, res *Resilience) *outageTracker {
	return &outageTracker{
		centers:      centers,
		res:          res,
		open:         make([]*outageWindow, len(centers)),
		capLossStart: -1,
	}
}

// observe inspects every center's health after tick t's failures and
// recoveries have been applied, opening/closing outage windows and —
// on scored ticks (t >= 1) — accumulating availability.
func (ot *outageTracker) observe(t int) {
	for i, c := range ot.centers {
		af := c.AvailableFraction()
		if t >= 1 {
			ot.res.Availability[c.Name] += af
			ot.res.CapacityLostCPUTicks += c.Capacity()[datacenter.CPU] * (1 - af)
		}
		healthy := af >= 1
		w := ot.open[i]
		switch {
		case w == nil && !healthy:
			ot.open[i] = &outageWindow{start: t, sawFull: c.Offline()}
			ot.openWindows++
			ot.res.Outages++
			ot.pending = append(ot.pending, t)
		case w != nil && !healthy:
			if c.Offline() {
				w.sawFull = true
			}
		case w != nil && healthy:
			ot.res.CapacityRecovered++
			ot.classify(w)
			ot.open[i] = nil
			ot.openWindows--
		}
	}
}

// trackRecovery updates the time to full recovery at acquire tick t:
// capacity is impaired while some center has an open outage window or
// brownout is engaged, and TimeToFullRecoveryTicks keeps the longest
// stretch from an impairment's onset to the tick it healed.
func (ot *outageTracker) trackRecovery(t int, brownout bool) {
	impaired := brownout || ot.openWindows > 0
	switch {
	case impaired && ot.capLossStart < 0:
		ot.capLossStart = t
	case !impaired && ot.capLossStart >= 0:
		if d := t - ot.capLossStart; d > ot.res.TimeToFullRecoveryTicks {
			ot.res.TimeToFullRecoveryTicks = d
		}
		ot.capLossStart = -1
	}
}

// serviceHealthy reports scored tick t's disruption state: an
// event-free tick heals every outage still pending service recovery.
func (ot *outageTracker) serviceHealthy(t int, ok bool) {
	if !ok {
		return
	}
	for _, s := range ot.pending {
		ot.res.ServiceRecovered++
		ot.ttrSum += float64(t - s)
	}
	ot.pending = ot.pending[:0]
}

func (ot *outageTracker) classify(w *outageWindow) {
	if w.sawFull {
		ot.res.FullOutages++
	} else {
		ot.res.PartialOutages++
	}
}

// finish classifies windows still open at the end of the run and
// normalizes the per-tick accumulators.
func (ot *outageTracker) finish(ticks int) {
	for i, w := range ot.open {
		if w != nil {
			ot.classify(w)
			ot.open[i] = nil
		}
	}
	if ot.res.ServiceRecovered > 0 {
		ot.res.MeanTimeToRecoverTicks = ot.ttrSum / float64(ot.res.ServiceRecovered)
	}
	if ticks > 0 {
		for name := range ot.res.Availability {
			ot.res.Availability[name] /= float64(ticks)
		}
	}
}
