package operator

import "testing"

// FuzzFromSnapshot feeds arbitrary payloads to the checkpoint decoder:
// it must return an error or a working operator, never panic. The
// seed corpus (testdata/fuzz/FuzzFromSnapshot) holds a real Snapshot
// payload and a forged negative lease count that once panicked.
func FuzzFromSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, _, err := FromSnapshot(checkpointConfig(testMatcher(20)), payload)
		if err != nil {
			return
		}
		if _, err := op.Snapshot(); err != nil {
			t.Fatalf("restored operator does not snapshot: %v", err)
		}
	})
}
