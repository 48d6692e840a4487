package provision

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// naiveSum is the uncached definition of Active and At: the left fold,
// in book order, of the leases active at t.
func naiveSum(book []*datacenter.Lease, t time.Time) datacenter.Vector {
	var sum datacenter.Vector
	for _, l := range book {
		if l.Active(t) {
			sum = sum.Add(l.Alloc)
		}
	}
	return sum
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b datacenter.Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLedgerCacheMatchesNaiveFold drives ledgers through random
// grants, expiries, center failures, degradation and restoration,
// explicit releases, brownout resets and checkpoint-style rebuilds, and
// checks after every step that the cached Active and At equal the
// naive in-order fold bit for bit.
func TestLedgerCacheMatchesNaiveFold(t *testing.T) {
	const tick = 2 * time.Minute
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		centers := make([]*datacenter.Center, 3)
		for i := range centers {
			var bulk datacenter.Vector
			bulk[datacenter.CPU] = 0.05 * float64(i+1)
			bulk[datacenter.ExtNetOut] = 0.33
			centers[i] = datacenter.NewCenter(string(rune('a'+i)), geo.London, 40,
				datacenter.HostingPolicy{Name: "p", Bulk: bulk, TimeBulk: time.Duration(6*(i+1)) * tick})
		}
		books := make([]*Ledger, 4)
		for i := range books {
			books[i] = &Ledger{Tag: string(rune('w' + i))}
		}
		now := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
		// check queries every book the way a driver's tick does: Active
		// at now, then At ahead, ending with At(now+tick); an At in the
		// past, before the latest grant, comes first. The naive folds
		// read the book before the query.
		check := func(step int, what string) {
			t.Helper()
			for bi, b := range books {
				want := naiveSum(b.Leases(), now)
				if got := b.Active(now); !sameBits(got, want) {
					t.Fatalf("seed %d step %d (%s): book %d Active = %v, naive fold %v", seed, step, what, bi, got, want)
				}
				for _, l := range b.Leases() {
					if !l.Active(now) {
						t.Fatalf("seed %d step %d (%s): book %d kept an inactive lease after Active", seed, step, what, bi)
					}
				}
				past := now.Add(-time.Duration(rng.Intn(8)) * tick)
				for _, at := range []time.Time{past, now.Add(time.Duration(rng.Intn(20)) * tick), now.Add(tick)} {
					if want, got := naiveSum(b.Leases(), at), b.At(at); !sameBits(got, want) {
						t.Fatalf("seed %d step %d (%s): book %d At(%v) = %v, naive fold %v", seed, step, what, bi, at, got, want)
					}
				}
			}
		}
		degraded := make([]float64, len(centers))
		for step := 0; step < 400; step++ {
			bi := rng.Intn(len(books))
			b := books[bi]
			c := centers[rng.Intn(len(centers))]
			if bi == 0 {
				// One center, one time bulk: acquisition order is expiry
				// order, the prefix path's case.
				c = centers[0]
			}
			what := ""
			switch op := rng.Intn(100); {
			case op < 40:
				what = "grant"
				var req datacenter.Vector
				req[datacenter.CPU] = 0.01 + rng.Float64()
				req[datacenter.Memory] = rng.Float64() / 3
				req[datacenter.ExtNetOut] = rng.Float64()
				if l, err := c.Lease(req, now, b.Tag); err == nil {
					b.Hold(l)
				}
			case op < 65:
				what = "tick"
				now = now.Add(tick)
				for _, c := range centers {
					c.Expire(now)
				}
			case op < 70:
				what = "fail"
				c.Fail()
				c.Recover()
			case op < 77:
				what = "degrade"
				f := rng.Float64() / 2
				degraded[c.Name[0]-'a'] += f
				c.Degrade(f)
			case op < 82:
				what = "restore"
				i := c.Name[0] - 'a'
				c.Restore(degraded[i])
				degraded[i] = 0
			case op < 90:
				what = "release"
				if book := b.Leases(); len(book) > 0 {
					l := book[rng.Intn(len(book))]
					if l.Center != nil {
						l.Center.Release(l)
					}
				}
			case op < 93:
				what = "brownout"
				b.ReleaseAll()
			case op < 96:
				// A requester whose clock runs ahead of the centers'
				// prunes leases the centers release later.
				what = "run-ahead"
				at := now.Add(time.Duration(1+rng.Intn(12)) * tick)
				want := naiveSum(b.Leases(), at)
				if got := b.Active(at); !sameBits(got, want) {
					t.Fatalf("seed %d step %d: Active(%v) ahead = %v, naive fold %v", seed, step, at, got, want)
				}
			default:
				// A checkpoint restore rebuilds the book in order into a
				// fresh ledger, tombstones included.
				what = "restore-book"
				fresh := &Ledger{Tag: b.Tag}
				for _, l := range b.Leases() {
					if rng.Intn(4) == 0 {
						fresh.Hold(datacenter.Tombstone(l.Center, l.Alloc, l.Start, l.Expires, l.Tag))
					}
					fresh.Hold(l)
				}
				books[bi] = fresh
			}
			// Like a driver, query at every tick; between ticks, only
			// sometimes, so grants and releases also land between At and
			// the next tick's Active.
			if what == "tick" || rng.Intn(3) == 0 {
				check(step, what)
			}
		}
	}
}

// BenchmarkLedgerActive is one time bulk of steady-state ticks over
// the paper workload's 125 zone lease books under HP-1/HP-2 timing: a
// 360-minute time bulk, a 2-minute tick, and a grant every fourth tick
// (staggered across the zones), so each book holds about 46 leases. A
// tick expires each zone's center, scores its book at now and sizes
// the next request against it at now+tick. An iteration is long
// enough for benchgate's ns/op tripwire, which losing the cached sum
// trips.
func BenchmarkLedgerActive(b *testing.B) {
	const (
		tick  = 2 * time.Minute
		zones = 125
	)
	hp1, _ := datacenter.PolicyByName("HP-1")
	centers := make([]*datacenter.Center, zones)
	books := make([]*Ledger, zones)
	for z := range books {
		centers[z] = datacenter.NewCenter("dc", geo.London, 1000, hp1)
		books[z] = &Ledger{Tag: "zone"}
	}
	now := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	var req datacenter.Vector
	req[datacenter.CPU] = 0.25
	req[datacenter.Memory] = 0.1
	step := func(i int) {
		now = now.Add(tick)
		for z, book := range books {
			c := centers[z]
			c.Expire(now)
			book.Active(now)
			book.At(now.Add(tick))
			if (i+z)%4 == 0 {
				l, err := c.Lease(req, now, book.Tag)
				if err != nil {
					b.Fatal(err)
				}
				book.Hold(l)
			}
		}
	}
	bulk := int(hp1.TimeBulk / tick)
	for i := 0; i < 2*bulk; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < bulk; j++ {
			step(j)
		}
	}
}
