// Package provision holds the acquisition step both provisioning
// drivers share: the trace-replay engine (internal/core, one Ledger
// per zone) and the live operator (internal/operator, one Ledger per
// game). A Ledger owns one requester's lease book, its bounded backoff
// after injected grant rejections, and the matcher call that feeds
// both. Policy that differs between the drivers — failover storm
// control, brownout, loss detection, lease expiry — stays with the
// driver that applies it.
//
// Ordering invariant. A Ledger keeps its book in acquisition order and
// sums it as a left fold in that order, so the drivers' float results
// do not depend on how the sum is computed. Float subtraction does not
// undo an addition, so the Ledger never subtracts: it caches the fold
// of the whole book, answers Active and At from the cache inside the
// window [latest start, earliest expiry) in which every lease of the
// book is active, extends it by one addition per grant (exact), and
// re-folds the survivors after a release. It is the datacenter.Holder
// of its leases, so it hears of every release. When every lease of
// the book shares one time bulk, acquisition order is expiry order and
// the leases that lapse are a prefix of the book: while the book is in
// that order and every counted release lies in the prefix, the ledger
// drops the prefix and re-folds the rest without testing each lease.
package provision

import (
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
)

// Backoff policy for injected grant rejections: after the n-th
// consecutive rejected acquisition a requester waits 1, 2, 4, then 8
// ticks before asking again (bounded exponential backoff).
const (
	maxRetryExp     = 4
	maxBackoffTicks = 8
)

// Ledger is one requester's provisioning state.
type Ledger struct {
	// Tag, Origin and MaxDistanceKm form the requester's standing
	// request: every acquisition asks under this tag, for players at
	// Origin, within the latency bound.
	Tag           string
	Origin        geo.Point
	MaxDistanceKm float64
	// book is the requester's lease book with its cached sums.
	book
	// retries counts consecutive rejected acquisitions (capped at
	// maxRetryExp); the requester skips acquisitions until tick
	// retryAt.
	retries int
	retryAt int
}

// Waiting reports whether the requester is backed off at tick.
func (b *Ledger) Waiting(tick int) bool { return tick < b.retryAt }

// Retrying reports whether the next acquisition re-attempts after a
// rejected one.
func (b *Ledger) Retrying() bool { return b.retries > 0 }

// ResetBackoff forgets past rejections.
func (b *Ledger) ResetBackoff() { b.retries = 0 }

// Acquire leases need from m at now, skipping the centers in exclude.
// It stamps the provenance record with tick, appends the grants to the
// book, and backs off when injected rejections left demand unmet (any
// other outcome resets the backoff).
func (b *Ledger) Acquire(m *ecosystem.Matcher, need datacenter.Vector, exclude []string, now time.Time, tick int) ([]*datacenter.Lease, datacenter.Vector, ecosystem.Outcome) {
	leases, unmet, out := m.AllocateDetailed(ecosystem.Request{
		Tag:           b.Tag,
		Origin:        b.Origin,
		MaxDistanceKm: b.MaxDistanceKm,
		Demand:        need,
		Exclude:       exclude,
	}, now)
	if out.Decision != nil {
		out.Decision.Tick = tick
	}
	for _, l := range leases {
		b.Hold(l)
	}
	if out.Rejections > 0 && !unmet.IsZero() {
		if b.retries < maxRetryExp {
			b.retries++
		}
		b.retryAt = tick + min(1<<(b.retries-1), maxBackoffTicks)
	} else {
		b.retries = 0
	}
	return leases, unmet, out
}

// EncodeBackoff writes the backoff state to a checkpoint.
func (b *Ledger) EncodeBackoff(e *checkpoint.Enc) {
	e.Int(b.retries)
	e.Int(b.retryAt)
}

// DecodeBackoff reads what EncodeBackoff wrote.
func (b *Ledger) DecodeBackoff(d *checkpoint.Dec) {
	b.retries = d.Int()
	b.retryAt = d.Int()
}

// Vector converts a game's resource demand into the data-center
// resource vector.
func Vector(d mmog.Demand) datacenter.Vector {
	var v datacenter.Vector
	v[datacenter.CPU] = d.CPU
	v[datacenter.Memory] = d.Memory
	v[datacenter.ExtNetIn] = d.ExtNetIn
	v[datacenter.ExtNetOut] = d.ExtNetOut
	return v
}
