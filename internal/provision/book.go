package provision

import (
	"time"

	"mmogdc/internal/datacenter"
)

// book is a lease book in acquisition order with its sum cached (see
// the package doc).
type book struct {
	leases []*datacenter.Lease
	// released is at least the number of leases in the book that are
	// released: every release notification counts it up, including a
	// late one for a lease Active already pruned.
	released int
	// ordered records that the book is in Expires order.
	ordered bool
	// sum is the left fold, in book order, of every lease's allocation;
	// it is valid while fresh, which a release clears.
	sum   datacenter.Vector
	fresh bool
	// lastStart is no earlier than any lease's start, and firstExpiry no
	// later than any lease's expiry: while fresh, every lease is active
	// in [lastStart, firstExpiry).
	lastStart   time.Time
	firstExpiry time.Time
}

// Leases returns the lease book in acquisition order. The slice
// aliases the book: callers must not modify it, and it is valid until
// the next call that changes the book.
func (b *book) Leases() []*datacenter.Lease { return b.leases }

// LeaseReleased implements datacenter.Holder: the cached sum is stale.
func (b *book) LeaseReleased(*datacenter.Lease) {
	b.released++
	b.fresh = false
}

// cached reports whether the cached sum answers a query at t.
func (b *book) cached(t time.Time) bool {
	return b.fresh && !t.Before(b.lastStart) && t.Before(b.firstExpiry)
}

// lapsed returns the end of the prefix of an ordered book whose leases
// have expired by t, when every lease after it is active at t (started,
// and not released: the prefix holds as many released leases as have
// been counted). ok is false when that does not hold and the caller
// must check every lease.
func (b *book) lapsed(t time.Time) (k int, ok bool) {
	if !b.ordered || t.Before(b.lastStart) {
		return 0, false
	}
	released := 0
	for k < len(b.leases) && !t.Before(b.leases[k].Expires) {
		if released < b.released && b.leases[k].Released() {
			released++
		}
		k++
	}
	return k, released == b.released
}

// foldFrom is the left fold of the allocations of leases[k:].
func (b *book) foldFrom(k int) datacenter.Vector {
	var sum datacenter.Vector
	for _, l := range b.leases[k:] {
		sum = sum.Add(l.Alloc)
	}
	return sum
}

// Active sums the leases active at now, pruning the rest from the
// book.
func (b *book) Active(now time.Time) datacenter.Vector {
	if b.cached(now) {
		return b.sum
	}
	if k, ok := b.lapsed(now); ok {
		// Drop the lapsed prefix and re-fold the rest.
		n := copy(b.leases, b.leases[k:])
		clear(b.leases[n:])
		b.leases = b.leases[:n]
		if n > 0 {
			b.firstExpiry = b.leases[0].Expires
		}
		b.released = 0
		b.sum, b.fresh = b.foldFrom(0), true
		return b.sum
	}
	// Re-fold the survivors in book order, compacting them to the front
	// of the book; they are all active at now, so their fold is the
	// cached sum from here on.
	var sum datacenter.Vector
	n := 0
	b.ordered = true
	for _, l := range b.leases {
		if !l.Active(now) {
			continue
		}
		sum = sum.Add(l.Alloc)
		if n == 0 || l.Start.After(b.lastStart) {
			b.lastStart = l.Start
		}
		if n > 0 && l.Expires.Before(b.leases[n-1].Expires) {
			b.ordered = false
		}
		if n == 0 || l.Expires.Before(b.firstExpiry) {
			b.firstExpiry = l.Expires
		}
		b.leases[n] = l
		n++
	}
	clear(b.leases[n:])
	b.leases = b.leases[:n]
	b.released = 0
	b.sum, b.fresh = sum, true
	return sum
}

// At sums the leases that will still be active at t, without pruning.
// Requests are sized against the allocation surviving to the next
// scoring instant, so leases are renewed before they lapse rather than
// one tick after.
func (b *book) At(t time.Time) datacenter.Vector {
	if b.cached(t) {
		return b.sum
	}
	if k, ok := b.lapsed(t); ok {
		return b.foldFrom(k)
	}
	var sum datacenter.Vector
	for _, l := range b.leases {
		if l.Active(t) {
			sum = sum.Add(l.Alloc)
		}
	}
	return sum
}

// Hold appends a lease to the book and makes the book its holder; a
// lease is held by one book, once. Checkpoint restores use it to
// rebuild a book in acquisition order; a released lease (a tombstone)
// is kept until the next Active prunes it.
func (b *book) Hold(l *datacenter.Lease) {
	l.SetHolder(b)
	if len(b.leases) == 0 {
		b.released, b.ordered = 0, true
		b.sum, b.fresh = datacenter.Vector{}, true
		b.lastStart, b.firstExpiry = l.Start, l.Expires
	} else {
		if l.Expires.Before(b.leases[len(b.leases)-1].Expires) {
			b.ordered = false
		}
		if l.Start.After(b.lastStart) {
			b.lastStart = l.Start
		}
		if l.Expires.Before(b.firstExpiry) {
			b.firstExpiry = l.Expires
		}
	}
	if l.Released() {
		b.released++
		b.fresh = false
	} else if b.fresh {
		// Appending to a left fold is exact.
		b.sum = b.sum.Add(l.Alloc)
	}
	b.leases = append(b.leases, l)
}

// ReleaseAll releases every live lease of the book back to its center,
// empties the book, and returns the number of leases released.
func (b *book) ReleaseAll() int {
	n := 0
	for _, l := range b.leases {
		if !l.Released() && l.Center != nil && l.Center.Release(l) {
			n++
		}
	}
	clear(b.leases)
	b.leases = b.leases[:0]
	b.sum, b.fresh = datacenter.Vector{}, true
	return n
}
