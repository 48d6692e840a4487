package provision_test

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/operator"
	"mmogdc/internal/predict"
	"mmogdc/internal/series"
	"mmogdc/internal/trace"
)

// equivCenters builds two uncontended centers with short time bulks,
// so leases expire and renew many times over the run.
func equivCenters() []*datacenter.Center {
	var fine, coarse datacenter.Vector
	fine[datacenter.CPU] = 0.05
	coarse[datacenter.CPU] = 0.5
	return []*datacenter.Center{
		datacenter.NewCenter("near", geo.London, 500,
			datacenter.HostingPolicy{Name: "fine", Bulk: fine, TimeBulk: 10 * time.Minute}),
		datacenter.NewCenter("far", geo.Amsterdam, 500,
			datacenter.HostingPolicy{Name: "coarse", Bulk: coarse, TimeBulk: 20 * time.Minute}),
	}
}

// leaseKey is a lease with its requester tag left out: the drivers tag
// by zone and by game respectively.
type leaseKey struct {
	center         string
	alloc          datacenter.Vector
	start, expires time.Time
}

// liveBook lists the leases the centers hold active at now, center by
// center in acquisition order.
func liveBook(centers []*datacenter.Center, now time.Time) []leaseKey {
	var out []leaseKey
	for _, c := range centers {
		for _, l := range c.Leases() {
			if l.Active(now) {
				out = append(out, leaseKey{c.Name, l.Alloc, l.Start, l.Expires})
			}
		}
	}
	return out
}

// TestDriversAcquireIdentically feeds one zone's load to both drivers —
// the trace-replay engine and the live operator — with a last-value
// predictor, no faults and no safety margin, and requires the same
// lease books at the end and the same rental cost per center over the
// whole run. It fails when either driver's acquisition drifts.
func TestDriversAcquireIdentically(t *testing.T) {
	const samples = 120
	game := mmog.NewGame("equiv", mmog.GenreMMORPG)
	start := time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)
	load := series.New(series.DefaultTick, start)
	for i := 0; i < samples; i++ {
		v := 800 + 500*math.Sin(2*math.Pi*float64(i)/40)
		if i%17 == 0 {
			v *= 1.6 // a spike the last-value forecast misses
		}
		load.Append(v)
	}
	ds := &trace.Dataset{
		Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London}},
		Groups:  []*trace.Group{{RegionID: 0, Load: load}},
	}

	coreCenters := equivCenters()
	if _, err := core.Run(core.Config{
		Workloads: []core.Workload{{Game: game, Dataset: ds, Predictor: predict.NewLastValue()}},
		Centers:   coreCenters,
		Workers:   1,
	}); err != nil {
		t.Fatal(err)
	}

	// core.Run acquires at every tick but the last, which it only
	// scores; the operator observes the same samples.
	opCenters := equivCenters()
	op, err := operator.New(operator.Config{
		Game:      game,
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   ecosystem.NewMatcher(opCenters),
		Tick:      series.DefaultTick,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < samples-1; i++ {
		if err := op.Observe(load.TimeAt(i), []float64{load.At(i)}); err != nil {
			t.Fatal(err)
		}
	}

	end := load.TimeAt(samples - 1)
	want, got := liveBook(coreCenters, end), liveBook(opCenters, end)
	if len(want) == 0 {
		t.Fatal("core.Run holds no leases at the end; the test exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("operator holds %d leases, core.Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease %d: operator %+v, core.Run %+v", i, got[i], want[i])
		}
	}
	if views := op.LeaseViews(end); len(views) != len(got) {
		t.Fatalf("operator book lists %d live leases, its centers %d", len(views), len(got))
	}
	for i, c := range coreCenters {
		if a, b := c.TotalCost(), opCenters[i].TotalCost(); a != b {
			t.Errorf("center %s rented %v under core.Run, %v under the operator", c.Name, a, b)
		}
	}
}
