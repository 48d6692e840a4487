package ecosystem

import (
	"math"
	"slices"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// allocateUncached is AllocateDetailed without the route cache: every
// call measures each center's distance, filters, and sorts the
// admitted candidates afresh, then walks them exactly as the matcher
// does.
func allocateUncached(m *Matcher, req Request, now time.Time) ([]*datacenter.Lease, datacenter.Vector, Outcome) {
	m.rejected = m.rejected[:0]
	remaining := req.Demand.ClampNonNegative()
	if remaining.IsZero() {
		return nil, datacenter.Vector{}, Outcome{}
	}
	var dec *Decision
	if m.log != nil {
		dec = m.log.begin(req.Tag)
		m.log.scratch = m.log.scratch[:0]
	}
	var cands []candidate
	for _, c := range m.centers {
		d := geo.DistanceKm(req.Origin, c.Location)
		switch {
		case excluded(req.Exclude, c.Name):
			if dec != nil {
				m.log.scratch = append(m.log.scratch, CandidateVerdict{Center: c.Name, DistKm: d, Disposition: DispExcludedByFailover})
			}
		case d <= req.MaxDistanceKm:
			cands = append(cands, candidate{center: c, distKm: d})
		case dec != nil:
			m.log.scratch = append(m.log.scratch, CandidateVerdict{Center: c.Name, DistKm: d, Disposition: DispOutOfLatencyClass})
		}
	}
	slices.SortFunc(cands, compareCandidates)
	return m.walk(req, now, cands, remaining, dec)
}

// seededFaults rejects or trims grants from a seeded stream, so two
// matchers walking the same candidates draw the same faults.
type seededFaults struct{ rng *xrand.Rand }

func (f seededFaults) GrantFault(string) (bool, float64) {
	switch p := f.rng.Float64(); {
	case p < 0.1:
		return true, 0
	case p < 0.25:
		return false, 0.5
	}
	return false, 1
}

// routeEcosystem builds centers whose policies tie on grain and time
// bulk, so distance and name decide part of the order, plus one center
// at a NaN location, which no latency bound admits.
func routeEcosystem() []*datacenter.Center {
	sites := []geo.Point{geo.London, geo.Amsterdam, {LatDeg: 40.7, LonDeg: -74}, {LatDeg: 37.8, LonDeg: -122.4},
		{LatDeg: 35.7, LonDeg: 139.7}, {LatDeg: 52.5, LonDeg: 13.4}, {LatDeg: -33.9, LonDeg: 151.2},
		{LatDeg: math.NaN(), LonDeg: 0}}
	var out []*datacenter.Center
	for i, p := range sites {
		pol := mkPolicy("p", 0.25*float64(1+i%2), time.Duration(60*(1+i%3))*time.Minute)
		out = append(out, datacenter.NewCenter(string(rune('h'-i)), p, 6, pol))
	}
	return out
}

// TestRouteCacheMatchesUncached sends the same random requests to a
// matcher with its route cache and to an uncached reference over twin
// ecosystems, and requires the same leases, unmet demand, fault outcome
// and provenance record — candidate order, distance and disposition
// included — for each. Requests come from a few repeated origins (one
// of them NaN), exclude random centers, and carry latency bounds from
// none (+Inf or NaN) to tight.
func TestRouteCacheMatchesUncached(t *testing.T) {
	origins := []geo.Point{geo.London, {LatDeg: 41, LonDeg: -87.6}, {LatDeg: 41, LonDeg: 12.5}, {LatDeg: -23.5, LonDeg: -46.6},
		{LatDeg: 1.3, LonDeg: 103.8}, {LatDeg: math.NaN(), LonDeg: 10}}
	bounds := []float64{math.Inf(1), math.NaN(), 0, 400, 1500, 6000, 12000, -1}
	for seed := uint64(1); seed <= 10; seed++ {
		rng := xrand.New(seed)
		cached, ref := NewMatcher(routeEcosystem()), NewMatcher(routeEcosystem())
		cached.SetFaultInjector(seededFaults{xrand.New(seed + 100)})
		ref.SetFaultInjector(seededFaults{xrand.New(seed + 100)})
		cached.SetDecisionLog(NewDecisionLog(4))
		ref.SetDecisionLog(NewDecisionLog(4))
		now := t0
		for step := 0; step < 300; step++ {
			if rng.Intn(5) == 0 {
				now = now.Add(20 * time.Minute)
				cached.Expire(now)
				ref.Expire(now)
			}
			req := Request{
				Tag:           "z",
				Origin:        origins[rng.Intn(len(origins))],
				MaxDistanceKm: bounds[rng.Intn(len(bounds))],
			}
			req.Demand[datacenter.CPU] = rng.Float64() * 3
			req.Demand[datacenter.Memory] = rng.Float64()
			for _, c := range cached.Centers() {
				if rng.Intn(6) == 0 {
					req.Exclude = append(req.Exclude, c.Name)
				}
			}
			if rng.Intn(8) == 0 {
				req.Exclude = append(req.Exclude, "no such center")
			}
			if rng.Intn(2) == 0 {
				cached.SetDecisionLog(nil)
				ref.SetDecisionLog(nil)
			} else if cached.DecisionLog() == nil {
				cached.SetDecisionLog(NewDecisionLog(4))
				ref.SetDecisionLog(NewDecisionLog(4))
			}
			gotL, gotU, gotO := cached.AllocateDetailed(req, now)
			wantL, wantU, wantO := allocateUncached(ref, req, now)
			if len(gotL) != len(wantL) {
				t.Fatalf("seed %d step %d: %d leases, uncached %d", seed, step, len(gotL), len(wantL))
			}
			for i := range gotL {
				g, w := gotL[i], wantL[i]
				if g.Center.Name != w.Center.Name || !sameVector(g.Alloc, w.Alloc) || g.Start != w.Start || g.Expires != w.Expires {
					t.Fatalf("seed %d step %d: lease %d from %s %v, uncached from %s %v", seed, step, i, g.Center.Name, g.Alloc, w.Center.Name, w.Alloc)
				}
			}
			if !sameVector(gotU, wantU) {
				t.Fatalf("seed %d step %d: unmet %v, uncached %v", seed, step, gotU, wantU)
			}
			if gotO.Rejections != wantO.Rejections || gotO.PartialGrants != wantO.PartialGrants || !slices.Equal(gotO.RejectedBy, wantO.RejectedBy) {
				t.Fatalf("seed %d step %d: outcome %+v, uncached %+v", seed, step, gotO, wantO)
			}
			if (gotO.Decision == nil) != (wantO.Decision == nil) {
				t.Fatalf("seed %d step %d: decision recorded %v, uncached %v", seed, step, gotO.Decision != nil, wantO.Decision != nil)
			}
			if gotO.Decision == nil {
				continue
			}
			g, w := gotO.Decision.Candidates, wantO.Decision.Candidates
			if len(g) != len(w) || math.Float64bits(gotO.Decision.UnmetCPU) != math.Float64bits(wantO.Decision.UnmetCPU) {
				t.Fatalf("seed %d step %d: decision %+v, uncached %+v", seed, step, *gotO.Decision, *wantO.Decision)
			}
			for i := range g {
				if g[i].Center != w[i].Center || g[i].Rank != w[i].Rank || g[i].Disposition != w[i].Disposition ||
					math.Float64bits(g[i].DistKm) != math.Float64bits(w[i].DistKm) ||
					math.Float64bits(g[i].CPU) != math.Float64bits(w[i].CPU) {
					t.Fatalf("seed %d step %d: candidate %d %+v, uncached %+v", seed, step, i, g[i], w[i])
				}
			}
		}
	}
}

func sameVector(a, b datacenter.Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
