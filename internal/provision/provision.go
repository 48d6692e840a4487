// Package provision holds the acquisition step both provisioning
// drivers share: the trace-replay engine (internal/core, one Ledger
// per zone) and the live operator (internal/operator, one Ledger per
// game). A Ledger owns one requester's lease book, its bounded backoff
// after injected grant rejections, and the matcher call that feeds
// both. Policy that differs between the drivers — failover storm
// control, brownout, loss detection, lease expiry — stays with the
// driver that applies it.
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
	// Leases is the lease book in acquisition order; the order fixes
	// float summation order.
	Leases []*datacenter.Lease
	// retries counts consecutive rejected acquisitions (capped at
	// maxRetryExp); the requester skips acquisitions until tick
	// retryAt.
	retries int
	retryAt int
}

// Active sums the leases active at now, pruning the rest from the
// book.
func (b *Ledger) Active(now time.Time) datacenter.Vector {
	var sum datacenter.Vector
	live := b.Leases[:0]
	for _, l := range b.Leases {
		if l.Active(now) {
			sum = sum.Add(l.Alloc)
			live = append(live, l)
		}
	}
	b.Leases = live
	return sum
}

// At sums the leases that will still be active at t, without pruning.
// Requests are sized against the allocation surviving to the next
// scoring instant, so leases are renewed before they lapse rather than
// one tick after.
func (b *Ledger) At(t time.Time) datacenter.Vector {
	var sum datacenter.Vector
	for _, l := range b.Leases {
		if l.Active(t) {
			sum = sum.Add(l.Alloc)
		}
	}
	return sum
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
	b.Leases = append(b.Leases, leases...)
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
