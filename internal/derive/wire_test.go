package derive

import (
	"runtime"
	"testing"

	"scrubjay/internal/frame"
	"scrubjay/internal/shuffle"
)

// TestKeyedWireRejectsHashlessBatch: a batch that claims 2^24 rows, no
// columns and no key hashes is a few bytes on the wire. Decoding it must
// fail on the missing hashes without reserving memory for the claimed
// rows.
func TestKeyedWireRejectsHashlessBatch(t *testing.T) {
	f, err := frame.RawFrame(1<<24, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := shuffle.AppendBatch(nil, f, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = keyedFrameWire.Decode(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded a %d-byte batch of %d rows without key hashes", len(b), f.NumRows())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting a %d-byte batch allocated %d bytes", len(b), grew)
	}
}
