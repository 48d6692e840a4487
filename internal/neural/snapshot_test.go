package neural

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mmogdc/internal/xrand"
)

// pinnedSnapshotSHA256 is the sha256 of pinnedSnapshot's bytes: per
// layer, one F64s per neuron row of weights followed by its momentum
// row, then the biases and their momentum. It pins the checkpoint
// format and the arithmetic of a training step, whatever layout the
// weights take in memory.
const pinnedSnapshotSHA256 = "f3be590083e4525efb0965eeb3836e8182abd794fab429035db8858909d8e4aa"

// pinnedSnapshot is a seeded (6,3,1) network after a few momentum
// training steps, so both the weights and the momentum buffers are
// non-trivial.
func pinnedSnapshot(t testing.TB) []byte {
	t.Helper()
	m, err := NewMLP(xrand.New(31), 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(32)
	in := make([]float64, 6)
	target := make([]float64, 1)
	for step := 0; step < 5; step++ {
		for i := range in {
			in[i] = r.Float64()
		}
		target[0] = r.Float64() - 0.5
		m.TrainClipped(in, target, 0.05, 0.5, 0.25)
	}
	return m.Snapshot()
}

func TestSnapshotBytesPinned(t *testing.T) {
	sum := sha256.Sum256(pinnedSnapshot(t))
	if got := hex.EncodeToString(sum[:]); got != pinnedSnapshotSHA256 {
		t.Fatalf("snapshot sha256 = %s, want %s: the checkpoint format changed", got, pinnedSnapshotSHA256)
	}
}

// FuzzMLPRestore feeds arbitrary payloads to Restore: it must return an
// error or restore the whole network, never panic and never leave the
// network half-restored. A failed Restore leaves the network's
// snapshot unchanged; a successful one makes it re-encode to exactly
// the payload. The seed corpus is a real snapshot and a truncated one.
func FuzzMLPRestore(f *testing.F) {
	snap := pinnedSnapshot(f)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := NewMLP(xrand.New(7), 6, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Snapshot()
		if err := m.Restore(payload); err != nil {
			if after := m.Snapshot(); !bytes.Equal(after, before) {
				t.Fatalf("failed Restore (%v) changed the network", err)
			}
			return
		}
		if got := m.Snapshot(); !bytes.Equal(got, payload) {
			t.Fatal("restored network does not re-encode to its snapshot")
		}
		m.Forward(make([]float64, 6))
	})
}
