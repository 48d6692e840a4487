package provision

import (
	"slices"
	"strings"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/obs"
)

// AcquireEvents records the flight-recorder events of Acquire outcomes
// for either driver: the rejection, grant, failover and decision
// events, in that order, all stamped with the caller's span. The
// center-name details are interned — a grant or failover usually names
// one center, from a tiny closed set — so steady-state telemetry
// allocates nothing per event. Counters and spans stay with the driver.
type AcquireEvents struct {
	rec           *obs.Recorder
	centersBuf    []string
	centersDetail map[string]string
	lostDetail    map[string]string
}

// NewAcquireEvents records into rec.
func NewAcquireEvents(rec *obs.Recorder) *AcquireEvents {
	return &AcquireEvents{rec: rec, centersDetail: map[string]string{}, lostDetail: map[string]string{}}
}

// Record records the events of one Acquire call by subject at tick:
// the leases it won, its outcome, and the centers it failed over from
// (none for an ordinary acquisition).
func (a *AcquireEvents) Record(tick int, subject string, leases []*datacenter.Lease, out ecosystem.Outcome, lost []string, span obs.SpanID) {
	if out.Rejections > 0 {
		a.rec.Record(obs.Event{Tick: tick, Kind: obs.EventRejection, Subject: subject,
			Value: float64(out.Rejections), Span: span})
	}
	if len(leases) > 0 {
		cpu := 0.0
		centers := a.centersBuf[:0]
		for _, l := range leases {
			cpu += l.Alloc[datacenter.CPU]
			if !slices.Contains(centers, l.Center.Name) {
				centers = append(centers, l.Center.Name)
			}
		}
		a.centersBuf = centers
		a.rec.Record(obs.Event{Tick: tick, Kind: obs.EventGrant, Subject: subject,
			Detail: joinedDetail(a.centersDetail, "centers: ", centers), Value: cpu, Span: span})
	}
	if len(lost) > 0 {
		a.rec.Record(obs.Event{Tick: tick, Kind: obs.EventFailover, Subject: subject,
			Detail: joinedDetail(a.lostDetail, "lost: ", lost), Value: float64(len(leases)), Span: span})
	}
	if out.Decision != nil {
		// The decision event shares the span with the events above —
		// the join key from outcome to ranking. Building the walk
		// Detail allocates, but only on the provenance-enabled path.
		a.rec.Record(obs.Event{Tick: tick, Kind: obs.EventDecision, Subject: subject,
			Detail: out.Decision.WalkDetail(), Value: float64(out.Decision.Seq), Span: span})
	}
}

// joinedDetail returns prefix followed by the comma-joined names,
// caching the one-name case in cache.
func joinedDetail(cache map[string]string, prefix string, names []string) string {
	if len(names) != 1 {
		return prefix + strings.Join(names, ",")
	}
	d, ok := cache[names[0]]
	if !ok {
		d = prefix + names[0]
		cache[names[0]] = d
	}
	return d
}
