package telemetry

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/gotuplex/tuplex/internal/metrics"
)

// syncBuffer lets the test poll what the progress goroutine wrote
// without racing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestBucketIndexExactBelowSubBucketRange(t *testing.T) {
	// Values below 2^subBits land in exact unit buckets.
	for v := int64(0); v < 1<<subBits; v++ {
		idx := bucketIndex(v)
		if idx != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, idx)
		}
		if bucketLow(idx) != v || bucketHigh(idx) != v {
			t.Fatalf("bucket %d bounds [%d,%d], want [%d,%d]",
				idx, bucketLow(idx), bucketHigh(idx), v, v)
		}
	}
}

func TestBucketBoundsCoverAndNest(t *testing.T) {
	// Every probed value must fall inside its bucket's bounds, and
	// bucket widths must bound the relative error at 1/2^subBits.
	probes := []int64{
		15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 1000,
		1<<20 - 1, 1 << 20, 1<<20 + 1, histMaxValue - 1, histMaxValue,
	}
	for _, v := range probes {
		idx := bucketIndex(v)
		lo, hi := bucketLow(idx), bucketHigh(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d]", v, idx, lo, hi)
		}
		if v >= 1<<subBits {
			width := hi - lo + 1
			if float64(width) > float64(v)/float64(int64(1)<<subBits)+1 {
				t.Fatalf("bucket %d width %d too coarse for value %d", idx, width, v)
			}
		}
	}
	// Octave boundary: [16,32) has unit buckets, [32,64) width-2 buckets.
	if bucketIndex(16) == bucketIndex(17) {
		t.Fatal("values 16 and 17 share a bucket; first octave must be unit-width")
	}
	if bucketIndex(32) != bucketIndex(33) {
		t.Fatal("values 32 and 33 must share a width-2 bucket")
	}
	if bucketIndex(33) == bucketIndex(34) {
		t.Fatal("values 33 and 34 must split at the sub-bucket boundary")
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v <= 1<<12; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram()
	// 90 fast observations, 10 slow: p50 tracks the fast mode, p99 the
	// slow, both within the 6.25% relative-error bound (+1 for the
	// bucket-upper-bound convention).
	for i := 0; i < 90; i++ {
		h.Record(1000)
	}
	for i := 0; i < 10; i++ {
		h.Record(100_000)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Sum(); got != 90*1000+10*100_000 {
		t.Fatalf("Sum = %d", got)
	}
	checkNear := func(name string, got, want int64) {
		t.Helper()
		if got < want || float64(got-want) > float64(want)/16+1 {
			t.Fatalf("%s = %d, want within 6.25%% above %d", name, got, want)
		}
	}
	checkNear("p50", h.Quantile(0.50), 1000)
	checkNear("p99", h.Quantile(0.99), 100_000)
	checkNear("Max", h.Max(), 100_000)
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram()
	h.Record(-5) // counts as zero
	h.Record(histMaxValue * 4)
	if got := h.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if got := h.Quantile(0.01); got != 0 {
		t.Fatalf("low quantile = %d, want 0 (negative clamps to zero)", got)
	}
	if got := h.Max(); got < histMaxValue {
		t.Fatalf("Max = %d, want clamped into the final bucket (>= %d)", got, histMaxValue)
	}
	var nilH *Histogram
	nilH.Record(5) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	if got := h.Max(); got != 0 {
		t.Fatalf("empty Max = %d, want 0", got)
	}
}

func TestRingWrapsAndSnapshotsChronologically(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 10; i++ {
		r.push(Sample{AtNS: int64(i)})
	}
	got := r.snapshot(0)
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want ring size 4", len(got))
	}
	for i, s := range got {
		if want := int64(7 + i); s.AtNS != want {
			t.Fatalf("snapshot[%d].AtNS = %d, want %d (chronological tail)", i, s.AtNS, want)
		}
	}
	if tail := r.snapshot(2); len(tail) != 2 || tail[1].AtNS != 10 {
		t.Fatalf("snapshot(2) = %+v, want the two newest", tail)
	}
}

// TestRingPastSizeKeepsLastSamples pins the wrap of a grown ring: past
// its size it keeps exactly the newest size samples, oldest first, and
// its buffer never grows past size.
func TestRingPastSizeKeepsLastSamples(t *testing.T) {
	const size = DefaultRingSize
	r := newRing(size)
	for i := 1; i <= size+size/2+7; i++ {
		r.push(Sample{AtNS: int64(i)})
		if n := len(r.snapshot(0)); n != min(i, size) {
			t.Fatalf("after %d pushes the ring holds %d samples", i, n)
		}
	}
	got := r.snapshot(0)
	first := int64(size/2 + 7 + 1)
	for i, s := range got {
		if want := first + int64(i); s.AtNS != want {
			t.Fatalf("snapshot[%d].AtNS = %d, want %d", i, s.AtNS, want)
		}
	}
	if cap(r.buf) != size {
		t.Fatalf("ring capacity %d, want %d", cap(r.buf), size)
	}
}

// TestShortRunRingIsSmall pins that a monitor which took one sample
// allocated a small fraction of a monitor with a preallocated full
// ring: the ring grows on demand.
func TestShortRunRingIsSmall(t *testing.T) {
	const runs = 50
	full := float64(unsafe.Sizeof(Sample{}))*DefaultRingSize + 2*8*float64(numBuckets)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m := NewRunMonitor(Config{}, &metrics.Metrics{}, 1)
		m.ring.push(Sample{AtNS: 1})
	}
	runtime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs; bytes > full/4 {
		t.Fatalf("a one-sample monitor allocated %.0f bytes; with a full ring it is %.0f", bytes, full)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	m1 := NewRunMonitor(Config{Label: "a"}, &metrics.Metrics{}, 1)
	m2 := NewRunMonitor(Config{Label: "b"}, &metrics.Metrics{}, 1)
	reg.Register(m1)
	reg.Register(m2)
	if m1.ID() == 0 || m2.ID() <= m1.ID() {
		t.Fatalf("ids = %d, %d, want increasing nonzero", m1.ID(), m2.ID())
	}
	live := reg.Live()
	if len(live) != 2 || live[0] != m1 || live[1] != m2 {
		t.Fatalf("Live() = %v, want [m1 m2] ordered by id", live)
	}
	reg.Unregister(m1)
	if live = reg.Live(); len(live) != 1 || live[0] != m2 {
		t.Fatalf("Live() after unregister = %v, want [m2]", live)
	}
	if recent := reg.Recent(); len(recent) != 1 || recent[0] != m1 {
		t.Fatalf("Recent() = %v, want [m1]", recent)
	}
	// Double unregister is a no-op.
	reg.Unregister(m1)
	if recent := reg.Recent(); len(recent) != 1 {
		t.Fatalf("double unregister duplicated the recent entry: %v", recent)
	}
}

func TestRegistryRecentCapped(t *testing.T) {
	reg := NewRegistry()
	var last *RunMonitor
	for i := 0; i < maxRecentRuns+5; i++ {
		m := NewRunMonitor(Config{}, &metrics.Metrics{}, 1)
		reg.Register(m)
		reg.Unregister(m)
		last = m
	}
	recent := reg.Recent()
	if len(recent) != maxRecentRuns {
		t.Fatalf("recent len = %d, want cap %d", len(recent), maxRecentRuns)
	}
	if recent[len(recent)-1] != last {
		t.Fatal("cap must evict oldest, keep newest")
	}
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *RunMonitor
	// Every engine-facing hook must be a no-op on nil.
	m.Start()
	m.TaskStart()
	m.TaskDone(time.Millisecond)
	m.RecordResolve(time.Millisecond)
	m.SetStages(3)
	m.SetStage(1)
	m.StoreStreamBytes(10)
	m.AddTotalBytes(10)
	m.Stop()
	if m.ID() != 0 || m.Label() != "" || m.Finished() || m.DurNS() != 0 {
		t.Fatal("nil monitor must read as zero")
	}
	if m.Stage() != 0 || m.Stages() != 0 || m.TotalBytes() != 0 {
		t.Fatal("nil monitor stage/bytes must read as zero")
	}
	if s := m.Samples(0); s != nil {
		t.Fatalf("nil monitor Samples = %v", s)
	}
	if _, ok := m.LastSample(); ok {
		t.Fatal("nil monitor must have no last sample")
	}
	if l := m.Latency(); l.Chunk.Count != 0 || l.Resolve.Count != 0 {
		t.Fatalf("nil monitor Latency = %+v", l)
	}
}

func TestMonitorSamplesCountersAndRates(t *testing.T) {
	mm := &metrics.Metrics{}
	m := NewRunMonitor(Config{Interval: time.Millisecond, RingSize: 64, Label: "t"}, mm, 2)
	mm.Counters.InputRows.Store(100)
	mm.Counters.NormalRows.Store(90)
	mm.Counters.GeneralResolved.Store(6)
	mm.Counters.FallbackResolved.Store(3)
	mm.Counters.FailedRows.Store(1)
	mm.Ingest.BytesRead.Store(1 << 20)
	m.StoreStreamBytes(1 << 10)
	m.SetStages(2)
	m.SetStage(1)
	m.TaskStart()
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s, ok := m.LastSample(); ok && s.InputRows == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never observed the counters")
		}
		time.Sleep(time.Millisecond)
	}
	m.TaskDone(5 * time.Millisecond)
	m.RecordResolve(100 * time.Microsecond)
	m.Stop()
	m.Stop() // idempotent

	s, ok := m.LastSample()
	if !ok {
		t.Fatal("no final sample after Stop")
	}
	if s.InputRows != 100 || s.NormalRows != 90 || s.GeneralRows != 6 ||
		s.FallbackRows != 3 || s.FailedRows != 1 {
		t.Fatalf("final sample counters = %+v", s)
	}
	if want := int64(1<<20 + 1<<10); s.BytesRead != want {
		t.Fatalf("BytesRead = %d, want ingest+stream = %d", s.BytesRead, want)
	}
	if s.Stage != 1 {
		t.Fatalf("Stage = %d, want 1", s.Stage)
	}
	if s.Executors != 2 {
		t.Fatalf("Executors = %d, want 2", s.Executors)
	}
	if len(m.Samples(0)) < 2 {
		t.Fatalf("samples = %d, want at least immediate + final", len(m.Samples(0)))
	}
	lat := m.Latency()
	if lat.Chunk.Count != 1 || lat.Resolve.Count != 1 {
		t.Fatalf("Latency counts = %+v, want 1 chunk + 1 resolve", lat)
	}
	if lat.Chunk.P50 < 5*time.Millisecond {
		t.Fatalf("chunk p50 = %v, want >= recorded 5ms", lat.Chunk.P50)
	}
	if !m.Finished() || m.DurNS() <= 0 {
		t.Fatal("monitor must be finished with a frozen duration")
	}
	// First sample has utilization from before TaskDone.
	first := m.Samples(0)[0]
	if first.BusyExecutors != 1 {
		t.Fatalf("first sample BusyExecutors = %d, want 1", first.BusyExecutors)
	}
	if got := first.BusyFraction(); got != 0.5 {
		t.Fatalf("BusyFraction = %g, want 0.5", got)
	}
}

func TestAutoEnableCounting(t *testing.T) {
	if AutoEnabled() {
		t.Fatal("autoEnable must start off")
	}
	r1 := EnableProcess()
	r2 := EnableProcess()
	if !AutoEnabled() {
		t.Fatal("AutoEnabled must be true while enabled")
	}
	r1()
	if !AutoEnabled() {
		t.Fatal("one release must not disable while another holder remains")
	}
	r2()
	if AutoEnabled() {
		t.Fatal("AutoEnabled must clear after final release")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		999:        "999",
		9_999:      "9999",
		10_000:     "10.0k",
		1_500_000:  "1500.0k",
		10_000_000: "10.0M",
	}
	for in, want := range cases {
		if got := humanCount(in); got != want {
			t.Fatalf("humanCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestEtaFor(t *testing.T) {
	m := NewRunMonitor(Config{}, &metrics.Metrics{}, 1)
	if _, ok := etaFor(m, Sample{BytesPerSec: 100}); ok {
		t.Fatal("eta with unknown total must be false")
	}
	m.AddTotalBytes(1000)
	if _, ok := etaFor(m, Sample{BytesRead: 500}); ok {
		t.Fatal("eta with zero throughput must be false")
	}
	eta, ok := etaFor(m, Sample{BytesRead: 500, BytesPerSec: 100})
	if !ok || eta != 5*time.Second {
		t.Fatalf("eta = %v, %v, want 5s", eta, ok)
	}
	if _, ok := etaFor(m, Sample{BytesRead: 1000, BytesPerSec: 100}); ok {
		t.Fatal("eta past the end must be false")
	}
}

func TestProgressRendersAndClears(t *testing.T) {
	reg := NewRegistry()
	mm := &metrics.Metrics{}
	m := NewRunMonitor(Config{Interval: time.Millisecond, Label: "zillow"}, mm, 4)
	mm.Counters.InputRows.Store(12_345)
	reg.Register(m)
	m.SetStages(3)
	m.Start()

	var buf syncBuffer
	stop := StartProgress(&buf, reg, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), "zillow") {
		if time.Now().After(deadline) {
			t.Fatalf("progress line never rendered: %q", buf.String())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	m.Stop()
	reg.Unregister(m)

	out := buf.String()
	if !strings.Contains(out, "zillow stage 1/3") {
		t.Fatalf("progress line missing stage progress: %q", out)
	}
	if !strings.Contains(out, "12.3k rows") {
		t.Fatalf("progress line missing row count: %q", out)
	}
	if !strings.Contains(out, "busy") {
		t.Fatalf("progress line missing executor utilization: %q", out)
	}
	if !strings.HasSuffix(out, "\r") {
		t.Fatalf("stop must clear the line (trailing \\r), got %q", out[len(out)-10:])
	}
}
