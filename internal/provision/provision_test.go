package provision

import (
	"testing"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
)

type rejectAll struct{}

func (rejectAll) GrantFault(string) (bool, float64) { return true, 0 }

// TestBackoffDoublesToCapAndRoundTrips drives a requester whose every
// grant is rejected: the waits run 1, 2, 4, 8, 8 ticks, the backoff
// survives a checkpoint round trip, and a served request resets it.
func TestBackoffDoublesToCapAndRoundTrips(t *testing.T) {
	var bulk datacenter.Vector
	bulk[datacenter.CPU] = 1
	c := datacenter.NewCenter("dc", geo.London, 10,
		datacenter.HostingPolicy{Name: "p", Bulk: bulk, TimeBulk: time.Hour})
	m := ecosystem.NewMatcher([]*datacenter.Center{c})
	m.SetFaultInjector(rejectAll{})
	b := Ledger{Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9}
	now := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	var need datacenter.Vector
	need[datacenter.CPU] = 2

	tick := 0
	for _, wait := range []int{1, 2, 4, 8, 8} {
		if _, unmet, _ := b.Acquire(m, need, nil, now, tick); unmet.IsZero() {
			t.Fatal("rejected acquisition reported no unmet demand")
		}
		if !b.Retrying() || !b.Waiting(tick+wait-1) || b.Waiting(tick+wait) {
			t.Fatalf("after the rejection at tick %d: want a wait of %d ticks", tick, wait)
		}
		tick += wait
	}

	e := checkpoint.NewEnc()
	b.EncodeBackoff(e)
	var restored Ledger
	d := checkpoint.NewDec(e.Data())
	restored.DecodeBackoff(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if restored.retries != b.retries || restored.retryAt != b.retryAt {
		t.Fatalf("restored backoff %d/%d, want %d/%d", restored.retries, restored.retryAt, b.retries, b.retryAt)
	}

	m.SetFaultInjector(nil)
	if leases, unmet, _ := b.Acquire(m, need, nil, now, tick); len(leases) == 0 || !unmet.IsZero() {
		t.Fatalf("uncontended acquisition: %d leases, unmet %v", len(leases), unmet)
	}
	if b.Retrying() || len(b.Leases()) == 0 {
		t.Fatal("a served acquisition kept the backoff or dropped its grant")
	}
	if got := b.At(now)[datacenter.CPU]; got != 2 {
		t.Fatalf("book holds %v CPU, want 2", got)
	}
}
