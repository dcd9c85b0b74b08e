package metrics

import (
	"math"
	rtmetrics "runtime/metrics"
)

// The allocation and GC counters below come from runtime/metrics,
// which, unlike runtime.ReadMemStats, reads them without stopping the
// world, so the engine can read them per stage and the telemetry
// sampler per tick. Each reader owns its samples and refills them
// without allocating; one reader serves one goroutine at a time.

// Mallocs counts heap allocations as runtime.MemStats.Mallocs does:
// objects allocated plus tiny allocations. The runtime folds a P's
// counts in when its cached spans are refilled or flushed, so a read
// lags the exact count by at most those spans' free slots; a
// ReadMemStats flushes them, and after one the two counts agree.
type Mallocs struct{ s [2]rtmetrics.Sample }

// Read returns the cumulative allocation count.
func (m *Mallocs) Read() uint64 {
	if m.s[0].Name == "" {
		m.s[0].Name, m.s[1].Name = "/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects"
	}
	rtmetrics.Read(m.s[:])
	return m.s[0].Value.Uint64() + m.s[1].Value.Uint64()
}

// GC reads the heap size and the collector's cycle and pause totals.
type GC struct{ s [3]rtmetrics.Sample }

// GCStats is one GC read.
type GCStats struct {
	// HeapBytes is the bytes of heap objects, live and not yet swept
	// (MemStats.HeapAlloc).
	HeapBytes uint64
	// Cycles is the number of completed GC cycles (MemStats.NumGC).
	Cycles uint64
	// PauseNS is the total stop-the-world GC pause time
	// (MemStats.PauseTotalNs), summed from the runtime's pause-latency
	// histogram at its bucket midpoints.
	PauseNS uint64
}

// Read returns the current totals.
func (g *GC) Read() GCStats {
	if g.s[0].Name == "" {
		g.s[0].Name = "/memory/classes/heap/objects:bytes"
		g.s[1].Name = "/gc/cycles/total:gc-cycles"
		g.s[2].Name = "/sched/pauses/total/gc:seconds"
	}
	rtmetrics.Read(g.s[:])
	h := g.s[2].Value.Float64Histogram()
	var pause float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		pause += float64(n) * (lo + hi) / 2
	}
	return GCStats{
		HeapBytes: g.s[0].Value.Uint64(),
		Cycles:    g.s[1].Value.Uint64(),
		PauseNS:   uint64(pause * 1e9),
	}
}
