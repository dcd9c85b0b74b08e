package metrics

import (
	"runtime"
	"testing"
)

var sink []*[64]byte

// TestGCStatsTrackMemStats: the GC read agrees with runtime.MemStats on
// the cycle count and, within the pause histogram's bucket widths, on
// the total pause time, and its heap bytes move with the heap.
func TestGCStatsTrackMemStats(t *testing.T) {
	var g GC
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	got := g.Read()
	if got.Cycles != uint64(ms.NumGC) {
		t.Fatalf("GC cycles %d, MemStats.NumGC %d", got.Cycles, ms.NumGC)
	}
	if lo, hi := ms.PauseTotalNs/2, ms.PauseTotalNs*2; got.PauseNS < lo || got.PauseNS > hi {
		t.Fatalf("GC pause %d ns, MemStats.PauseTotalNs %d ns", got.PauseNS, ms.PauseTotalNs)
	}
	before := got.HeapBytes
	for i := 0; i < 1<<14; i++ {
		sink = append(sink, new([64]byte))
	}
	if after := g.Read().HeapBytes; after < before+(1<<20) {
		t.Fatalf("heap bytes %d → %d after allocating 1 MiB", before, after)
	}
	sink = nil
}
