package core

import (
	"fmt"
	"sort"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/predict"
)

// This file implements checkpoint/resume for the batch engine: the
// full simulation state — predictors, lease books, center accounting,
// metric accumulators, outage tracker, and the grant-fault stream — is
// serialized at end-of-tick boundaries, so a killed run restarted with
// the same Config resumes from the newest valid snapshot and produces
// a Result bit-identical to an uninterrupted run. The fault plan
// itself is NOT serialized: it is a pure function of the seed and is
// regenerated on resume; only the sequential grant stream's cursor
// needs capturing.

// corePayloadKind stamps engine checkpoints so they can never be
// confused with the online operator's (internal/operator) snapshots.
const corePayloadKind = "mmogdc/core-run@2"

// ErrStopped is returned by Run when Config.StopAfterTick halted the
// simulation deliberately (a simulated crash for recovery drills). The
// checkpoint store holds the state to resume from; there is no final
// Result by design.
var ErrStopped = fmt.Errorf("core: run stopped after requested tick")

// snapshot serializes the state after tick doneTick completed.
func (r *run) snapshot(doneTick int) ([]byte, error) {
	e := checkpoint.NewEnc()
	e.Str(corePayloadKind)
	// Fingerprint: a checkpoint resumes only the run it was taken from.
	e.Int(r.samples)
	e.Bool(r.cfg.Static)
	e.Int(len(r.zones))
	for i := range r.zones {
		e.Str(r.zones[i].Tag)
	}
	e.Int(len(r.cfg.Centers))
	for _, c := range r.cfg.Centers {
		e.Str(c.Name)
	}

	e.Int(doneTick)
	e.Int(r.res.Ticks)
	e.Int(r.res.Events)
	e.Int(r.res.Unmet)
	e.Ints(r.res.CumEvents)
	e.F64s(r.res.OverPct)
	e.F64s(r.res.UnderPct)
	e.F64s(r.overSum[:])
	e.F64s(r.underSum[:])
	e.Ints(r.overTicks[:])

	// Per-game accumulators, sorted by name for a canonical byte
	// stream (the live accumulator is flat, in workload order).
	gameIdx := make(map[string]int, len(r.gameNames))
	names := make([]string, len(r.gameNames))
	copy(names, r.gameNames)
	for i, name := range r.gameNames {
		gameIdx[name] = i
	}
	sort.Strings(names)
	e.Int(len(names))
	for _, name := range names {
		e.Str(name)
		e.F64(r.gameUnder[gameIdx[name]])
	}

	rs := r.res.Resilience
	e.Int(rs.Outages)
	e.Int(rs.FullOutages)
	e.Int(rs.PartialOutages)
	e.Int(rs.CapacityRecovered)
	e.Int(rs.ServiceRecovered)
	e.Int(rs.Failovers)
	e.Int(rs.FailoverLeases)
	e.Int(rs.Retries)
	e.Int(rs.Rejections)
	e.Int(rs.PartialGrants)
	e.Int(rs.DroppedSamples)
	e.F64(rs.CapacityLostCPUTicks)
	e.Int(rs.RegionBlackouts)
	e.Int(rs.FailoversDeferred)
	e.Int(rs.BrownoutTicks)
	e.Int(rs.ShedLeases)
	e.F64(rs.ShedPlayerTicks)
	e.Int(rs.TimeToFullRecoveryTicks)
	for _, c := range r.cfg.Centers {
		e.F64(rs.Availability[c.Name])
	}

	e.F64(r.tracker.ttrSum)
	e.Ints(r.tracker.pending)
	for _, w := range r.tracker.open {
		if w == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.Int(w.start)
		e.Bool(w.sawFull)
	}

	// Centers: scalar accounting plus the lease book in list order (the
	// order fixes both float summation and newest-first shedding).
	leasePos := map[*datacenter.Lease][2]int{}
	for ci, c := range r.cfg.Centers {
		st := c.CheckpointState()
		e.F64s(st.Allocated[:])
		e.F64(st.TotalCost)
		e.Time(st.Watermark)
		e.Int(st.FailDepth)
		e.F64(st.Degraded)
		book := c.Leases()
		e.Int(len(book))
		for pos, l := range book {
			leasePos[l] = [2]int{ci, pos}
			e.F64s(l.Alloc[:])
			e.Time(l.Start)
			e.Time(l.Expires)
			e.Str(l.Tag)
		}
	}

	// Zones: predictor state, LOCF sample, backoff, and the lease list
	// as (center, position) references into the books above — zone
	// lease order also fixes float summation order.
	for i := range r.zones {
		z := &r.zones[i]
		if z.predictor == nil {
			e.Bool(false)
		} else {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				return nil, fmt.Errorf("core: zone %s predictor %T is not snapshotable", z.Tag, z.predictor)
			}
			e.Bool(true)
			e.Bytes(st.Snapshot())
		}
		e.F64(z.lastObs)
		z.EncodeBackoff(e)
		e.Int(z.failoverAt)
		e.Int(len(z.pendingLost))
		for _, name := range z.pendingLost {
			e.Str(name)
		}
		refs := make([]int, 0, 2*len(z.Leases()))
		for _, l := range z.Leases() {
			p, ok := leasePos[l]
			if !ok {
				// A zone holding a lease absent from every live book can
				// only mean the lease died this tick and was not pruned
				// yet; it contributes nothing and is dropped from the
				// snapshot (pruning does the same next tick).
				if !l.Released() {
					return nil, fmt.Errorf("core: zone %s holds a live lease missing from every center", z.Tag)
				}
				continue
			}
			refs = append(refs, p[0], p[1])
		}
		e.Ints(refs)
	}

	if r.plan == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		for _, w := range r.plan.SnapshotGrants() {
			e.U64(w)
		}
	}

	e.Bool(r.brownoutActive)
	e.Int(r.tracker.capLossStart)

	e.Bool(r.cfg.TrackCenters)
	if r.cfg.TrackCenters {
		if r.usage != nil {
			r.usage.flush(r.res.CenterStats)
		}
		for _, c := range r.cfg.Centers {
			cs := r.res.CenterStats[c.Name]
			e.F64(cs.AvgAllocatedCPU)
			e.F64(cs.AvgFreeCPU)
			regions := make([]string, 0, len(cs.AllocatedByRegion))
			for name := range cs.AllocatedByRegion {
				regions = append(regions, name)
			}
			sort.Strings(regions)
			e.Int(len(regions))
			for _, name := range regions {
				e.Str(name)
				e.F64(cs.AllocatedByRegion[name])
			}
		}
	}
	return e.Data(), nil
}

// restore re-establishes a snapshot over freshly constructed run
// state, returning the tick the snapshot was taken after. The centers
// must be untouched (as built by the caller's Config); the lease books
// are reconstructed from the snapshot.
func (r *run) restore(payload []byte) (int, error) {
	d := checkpoint.NewDec(payload)
	fail := func(err error) (int, error) { return 0, fmt.Errorf("core: resume: %w", err) }
	if kind := d.Str(); kind != corePayloadKind {
		if err := d.Err(); err != nil {
			return fail(err)
		}
		return 0, fmt.Errorf("core: resume: checkpoint kind %q, want %q", kind, corePayloadKind)
	}
	if v := d.Int(); d.Err() == nil && v != r.samples {
		return 0, fmt.Errorf("core: resume: checkpoint for %d samples, run has %d", v, r.samples)
	}
	if v := d.Bool(); d.Err() == nil && v != r.cfg.Static {
		return 0, fmt.Errorf("core: resume: static-mode mismatch")
	}
	if v := d.Int(); d.Err() == nil && v != len(r.zones) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d zones, run has %d", v, len(r.zones))
	}
	for i := range r.zones {
		if tag := d.Str(); d.Err() == nil && tag != r.zones[i].Tag {
			return 0, fmt.Errorf("core: resume: zone %q in checkpoint, %q in run", tag, r.zones[i].Tag)
		}
	}
	if v := d.Int(); d.Err() == nil && v != len(r.cfg.Centers) {
		return 0, fmt.Errorf("core: resume: checkpoint has %d centers, run has %d", v, len(r.cfg.Centers))
	}
	for _, c := range r.cfg.Centers {
		if name := d.Str(); d.Err() == nil && name != c.Name {
			return 0, fmt.Errorf("core: resume: center %q in checkpoint, %q in run", name, c.Name)
		}
		if c.ActiveLeases() != 0 {
			return 0, fmt.Errorf("core: resume: center %q is not freshly constructed", c.Name)
		}
	}

	doneTick := d.Int()
	r.res.Ticks = d.Int()
	r.res.Events = d.Int()
	r.res.Unmet = d.Int()
	r.res.CumEvents = d.Ints()
	r.res.OverPct = d.F64s()
	r.res.UnderPct = d.F64s()
	copy(r.overSum[:], d.F64s())
	copy(r.underSum[:], d.F64s())
	copy(r.overTicks[:], d.Ints())

	gameIdx := make(map[string]int, len(r.gameNames))
	for i, name := range r.gameNames {
		gameIdx[name] = i
	}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		name := d.Str()
		v := d.F64()
		gi, ok := gameIdx[name]
		if !ok {
			return 0, fmt.Errorf("core: resume: checkpoint accumulates unknown game %q", name)
		}
		r.gameUnder[gi] = v
	}

	rs := r.res.Resilience
	rs.Outages = d.Int()
	rs.FullOutages = d.Int()
	rs.PartialOutages = d.Int()
	rs.CapacityRecovered = d.Int()
	rs.ServiceRecovered = d.Int()
	rs.Failovers = d.Int()
	rs.FailoverLeases = d.Int()
	rs.Retries = d.Int()
	rs.Rejections = d.Int()
	rs.PartialGrants = d.Int()
	rs.DroppedSamples = d.Int()
	rs.CapacityLostCPUTicks = d.F64()
	rs.RegionBlackouts = d.Int()
	rs.FailoversDeferred = d.Int()
	rs.BrownoutTicks = d.Int()
	rs.ShedLeases = d.Int()
	rs.ShedPlayerTicks = d.F64()
	rs.TimeToFullRecoveryTicks = d.Int()
	for _, c := range r.cfg.Centers {
		rs.Availability[c.Name] = d.F64()
	}

	r.tracker.ttrSum = d.F64()
	r.tracker.pending = d.Ints()
	for i := range r.tracker.open {
		if d.Bool() {
			r.tracker.open[i] = &outageWindow{start: d.Int(), sawFull: d.Bool()}
			r.tracker.openWindows++
		} else {
			r.tracker.open[i] = nil
		}
	}

	books := make([][]*datacenter.Lease, len(r.cfg.Centers))
	for ci, c := range r.cfg.Centers {
		var st datacenter.CheckpointState
		alloc := d.F64s()
		st.TotalCost = d.F64()
		st.Watermark = d.Time()
		st.FailDepth = d.Int()
		st.Degraded = d.F64()
		if d.Err() != nil {
			break
		}
		if len(alloc) != int(datacenter.NumResources) {
			return 0, fmt.Errorf("core: resume: center %q allocation has %d resources", c.Name, len(alloc))
		}
		copy(st.Allocated[:], alloc)
		c.RestoreCheckpointState(st)
		n := d.Int()
		if d.Err() != nil {
			break
		}
		if n < 0 || n > 1<<20 {
			return 0, fmt.Errorf("core: resume: center %q lease count %d", c.Name, n)
		}
		books[ci] = make([]*datacenter.Lease, 0, n)
		for j := 0; j < n; j++ {
			la := d.F64s()
			start := d.Time()
			expires := d.Time()
			tag := d.Str()
			if d.Err() != nil {
				break
			}
			if len(la) != int(datacenter.NumResources) {
				return 0, fmt.Errorf("core: resume: lease %d of %q has %d resources", j, c.Name, len(la))
			}
			var v datacenter.Vector
			copy(v[:], la)
			books[ci] = append(books[ci], c.Adopt(v, start, expires, tag))
		}
	}

	for i := range r.zones {
		z := &r.zones[i]
		hasPredictor := d.Bool()
		var snap []byte
		if hasPredictor {
			snap = d.Bytes()
		}
		z.lastObs = d.F64()
		z.DecodeBackoff(d)
		z.failoverAt = d.Int()
		nPending := d.Int()
		if d.Err() != nil {
			break
		}
		if nPending < 0 || nPending > len(r.cfg.Centers) {
			return 0, fmt.Errorf("core: resume: zone %s parks %d failovers", z.Tag, nPending)
		}
		z.pendingLost = z.pendingLost[:0]
		for j := 0; j < nPending; j++ {
			z.pendingLost = append(z.pendingLost, d.Str())
		}
		refs := d.Ints()
		if d.Err() != nil {
			break
		}
		if hasPredictor != (z.predictor != nil) {
			return 0, fmt.Errorf("core: resume: zone %s predictor presence mismatch", z.Tag)
		}
		if hasPredictor {
			st, ok := z.predictor.(predict.Stateful)
			if !ok {
				return 0, fmt.Errorf("core: resume: zone %s predictor %T is not snapshotable", z.Tag, z.predictor)
			}
			if err := st.Restore(snap); err != nil {
				return fail(err)
			}
		}
		if len(refs)%2 != 0 {
			return 0, fmt.Errorf("core: resume: zone %s has a dangling lease reference", z.Tag)
		}
		// The zone's book is empty: restore runs over fresh run state.
		for k := 0; k+1 < len(refs); k += 2 {
			ci, pos := refs[k], refs[k+1]
			if ci < 0 || ci >= len(books) || pos < 0 || pos >= len(books[ci]) {
				return 0, fmt.Errorf("core: resume: zone %s references lease (%d,%d) outside the books", z.Tag, ci, pos)
			}
			z.Hold(books[ci][pos])
		}
	}

	hasPlan := d.Bool()
	var grants [4]uint64
	if hasPlan {
		for i := range grants {
			grants[i] = d.U64()
		}
	}
	r.brownoutActive = d.Bool()
	r.tracker.capLossStart = d.Int()
	trackCenters := d.Bool()
	if d.Err() == nil {
		if hasPlan != (r.plan != nil) {
			return 0, fmt.Errorf("core: resume: fault-injection mismatch between checkpoint and config")
		}
		if trackCenters != r.cfg.TrackCenters {
			return 0, fmt.Errorf("core: resume: TrackCenters mismatch between checkpoint and config")
		}
	}
	if hasPlan && d.Err() == nil {
		if err := r.plan.RestoreGrants(grants); err != nil {
			return fail(err)
		}
	}
	if trackCenters && d.Err() == nil {
		for _, c := range r.cfg.Centers {
			cs := r.res.CenterStats[c.Name]
			cs.AvgAllocatedCPU = d.F64()
			cs.AvgFreeCPU = d.F64()
			for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
				name := d.Str()
				cs.AllocatedByRegion[name] = d.F64()
			}
		}
		if r.usage != nil {
			r.usage.load(r.res.CenterStats)
		}
	}
	if err := d.Close(); err != nil {
		return fail(err)
	}
	if doneTick < 1 || doneTick >= r.samples {
		return 0, fmt.Errorf("core: resume: checkpoint tick %d outside run of %d samples", doneTick, r.samples)
	}
	return doneTick, nil
}
