package datacenter

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/xrand"
)

// releaseLog records, through the Holder notification, which leases
// were released and in what order, by a lease id shared between twin
// centers.
type releaseLog struct {
	id  map[*Lease]int
	seq []int
}

func (r *releaseLog) LeaseReleased(l *Lease) { r.seq = append(r.seq, r.id[l]) }

// twin is one of two centers driven through the same operations: the
// fast one expires as it chooses, the reference one is forced to scan.
type twin struct {
	c    *Center
	log  *releaseLog
	byID []*Lease
}

func newTwin() *twin {
	var bulk Vector
	bulk[CPU] = 0.25
	bulk[ExtNetOut] = 0.33
	return &twin{
		c:   NewCenter("dc", t0Point, 60, HostingPolicy{Name: "p", Bulk: bulk, TimeBulk: 12 * time.Minute}),
		log: &releaseLog{id: map[*Lease]int{}},
	}
}

var t0Point = TableIIISites()[0].Location

// hold registers a lease (or nil) under the next id.
func (tw *twin) hold(l *Lease) {
	if l != nil {
		tw.log.id[l] = len(tw.byID)
		l.SetHolder(tw.log)
	}
	tw.byID = append(tw.byID, l)
}

// ids maps the center's live leases to their ids.
func (tw *twin) ids() []int {
	var out []int
	for _, l := range tw.c.Leases() {
		out = append(out, tw.log.id[l])
	}
	return out
}

// TestExpirePrefixMatchesScan drives twin centers through random
// leases from requesters on clocks up to ten minutes apart,
// adoptions, reservations, explicit releases, failures and
// degradations, and expiries at random times. The fast center expires
// by popping the lapsed prefix whenever its book is in expiry order;
// the reference center always scans. After every step both must have
// released the same leases in the same order and hold the same book
// and the same allocation, bit for bit.
func TestExpirePrefixMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := xrand.New(seed)
		fast, ref := newTwin(), newTwin()
		both := func(f func(tw *twin)) { f(fast); f(ref) }
		clock := t0
		prefix := 0
		for step := 0; step < 300; step++ {
			what := ""
			switch op := rng.Intn(100); {
			case op < 40:
				what = "lease"
				// Requesters share the center on clocks up to ten minutes
				// behind or ahead of the one expiring it.
				at := clock
				if rng.Intn(2) == 0 {
					at = clock.Add(time.Duration(rng.Intn(11)-5) * 2 * time.Minute)
				}
				var req Vector
				req[CPU] = 0.1 + rng.Float64()*2
				req[Memory] = rng.Float64()
				both(func(tw *twin) {
					l, err := tw.c.Lease(req, at, "g")
					if err != nil {
						l = nil
					}
					tw.hold(l)
				})
			case op < 48:
				what = "adopt"
				var alloc Vector
				alloc[CPU] = 0.25 * float64(1+rng.Intn(4))
				start := clock.Add(-time.Duration(rng.Intn(10)) * time.Minute)
				expires := start.Add(time.Duration(1+rng.Intn(20)) * time.Minute)
				both(func(tw *twin) { tw.hold(tw.c.Adopt(alloc, start, expires, "g")) })
			case op < 55:
				what = "reserve"
				start := clock.Add(time.Duration(rng.Intn(10)) * time.Minute)
				req := cpuVec(0.25 * float64(1+rng.Intn(3)))
				both(func(tw *twin) {
					l, err := tw.c.Reserve(req, start, "g")
					if err != nil {
						l = nil
					}
					tw.hold(l)
				})
			case op < 62:
				what = "release"
				i := rng.Intn(len(fast.byID) + 1)
				both(func(tw *twin) {
					if i < len(tw.byID) && tw.byID[i] != nil {
						tw.c.Release(tw.byID[i])
					}
				})
			case op < 65:
				what = "fail"
				both(func(tw *twin) { tw.c.Fail(); tw.c.Recover() })
			case op < 70:
				what = "degrade"
				f := rng.Float64() / 2
				both(func(tw *twin) { tw.c.Degrade(f) })
			case op < 74:
				what = "restore"
				both(func(tw *twin) { tw.c.Restore(tw.c.degraded) })
			default:
				what = "expire"
				if rng.Intn(4) > 0 {
					clock = clock.Add(2 * time.Minute)
				}
				at := clock.Add(-time.Duration(rng.Intn(3)) * 2 * time.Minute)
				if !fast.c.unordered {
					prefix++
				}
				ref.c.unordered = true
				nf, nr := fast.c.Expire(at), ref.c.Expire(at)
				if nf != nr {
					t.Fatalf("seed %d step %d: prefix expiry released %d leases, scan %d", seed, step, nf, nr)
				}
			}
			if !equalInts(fast.log.seq, ref.log.seq) {
				t.Fatalf("seed %d step %d (%s): release order %v, scan %v", seed, step, what, fast.log.seq, ref.log.seq)
			}
			if !equalInts(fast.ids(), ref.ids()) {
				t.Fatalf("seed %d step %d (%s): book %v, scan %v", seed, step, what, fast.ids(), ref.ids())
			}
			fa, ra := fast.c.Allocated(), ref.c.Allocated()
			for r := range fa {
				if math.Float64bits(fa[r]) != math.Float64bits(ra[r]) {
					t.Fatalf("seed %d step %d (%s): allocated %v, scan %v", seed, step, what, fa, ra)
				}
			}
		}
		if prefix == 0 {
			t.Fatalf("seed %d: the prefix path never ran", seed)
		}
	}
}

// TestExpireAfterOutOfOrderActivation activates a reservation behind a
// lease that expires later: the book leaves expiry order, and Expire
// must still release the reservation when its window ends.
func TestExpireAfterOutOfOrderActivation(t *testing.T) {
	c := NewCenter("dc", t0Point, 10, testPolicy())
	r, err := c.Reserve(cpuVec(1), t0.Add(10*time.Minute), "r")
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease(cpuVec(1), t0.Add(20*time.Minute), "l")
	if err != nil {
		t.Fatal(err)
	}
	c.Expire(t0.Add(20 * time.Minute))
	if n := c.Expire(r.Expires); n != 1 || !r.Released() || l.Released() {
		t.Fatalf("expiry at the reservation's end released %d leases (reservation %v, lease %v)", n, r.Released(), l.Released())
	}
	if got := c.Allocated()[CPU]; got != 1 {
		t.Fatalf("allocated %v CPU after the reservation ended, want 1", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkCenterExpire is one time bulk of steady-state ticks over
// four centers holding about 2,500 leases each under HP-1 timing (a
// 360-minute time bulk, a 2-minute tick): each tick expires the lapsed
// leases of every center, then grants as many new ones as lapsed, so
// the books stay the same size. An iteration is long enough for
// benchgate's ns/op tripwire, which scanning every lease trips.
func BenchmarkCenterExpire(b *testing.B) {
	const (
		tick    = 2 * time.Minute
		perTick = 14
	)
	hp1, _ := PolicyByName("HP-1")
	centers := make([]*Center, 4)
	for i := range centers {
		centers[i] = NewCenter("dc", t0Point, 2000, hp1)
	}
	now := t0
	var req Vector
	req[CPU] = 0.25
	step := func() {
		now = now.Add(tick)
		for _, c := range centers {
			c.Expire(now)
			for j := 0; j < perTick; j++ {
				if _, err := c.Lease(req, now, "zone"); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	bulk := int(hp1.TimeBulk / tick)
	for i := 0; i < 2*bulk; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < bulk; j++ {
			step()
		}
	}
}
