// Package telemetry is the engine's live-monitoring subsystem: where
// internal/trace explains a run after it finishes, telemetry makes a
// run observable while it executes. A RunMonitor owns a fixed-size
// ring-buffer time-series sampler (the InfluxDB sampler design: one
// writer goroutine, bounded memory, readers snapshot under a short
// lock) that snapshots throughput, per-path routing counters, executor
// utilization and memory pressure at a configurable interval, plus
// zero-allocation latency histograms for per-chunk processing and
// per-exception-resolve work. A process-global Registry tracks live and
// recent runs; the HTTP introspection server (server.go) and the TTY
// progress view (progress.go) read from it.
//
// Cost contract (extends the internal/trace contract): when telemetry
// is off the engine never constructs a RunMonitor, so the execution
// path is byte-for-byte the unmonitored one. When on, instrumentation
// is per-task and per-exception-row only — one atomic add at task
// start/end and one histogram increment per chunk/resolve — never per
// row on the compiled normal path; the sampler goroutine reads shared
// atomics at the sampling interval (default 100ms) and writes into a
// pre-allocated ring.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/metrics"
)

// DefaultInterval is the sampling interval when Config.Interval is 0.
const DefaultInterval = 100 * time.Millisecond

// DefaultRingSize is the sample-ring capacity when Config.RingSize is 0
// (600 samples = one minute of history at the default interval).
const DefaultRingSize = 600

// Config configures one run's telemetry.
type Config struct {
	// Enabled turns live monitoring on for the run. When false the
	// engine still monitors the run if an introspection server is
	// active in the process (see AutoEnabled).
	Enabled bool
	// Interval is the sampling period (0 = DefaultInterval).
	Interval time.Duration
	// RingSize is the sample-ring capacity (0 = DefaultRingSize).
	RingSize int
	// Label names the run in /metrics, /debug/tuplex/runz and the
	// progress view ("" = "run").
	Label string
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.Label == "" {
		c.Label = "run"
	}
	return c
}

// Sample is one point of a run's time series. Cumulative fields are
// absolute counter snapshots; rate and delta fields are relative to the
// previous sample.
type Sample struct {
	// AtNS is the sample time in nanoseconds since the run started.
	AtNS int64 `json:"at_ns"`
	// Stage is the stage executing when the sample was taken.
	Stage int `json:"stage"`
	// InputRows / OutputRows are cumulative row counters.
	InputRows  int64 `json:"input_rows"`
	OutputRows int64 `json:"output_rows"`
	// NormalRows / GeneralRows / FallbackRows / FailedRows are the
	// cumulative per-path routing counters (normal-path completions,
	// general-path resolutions, fallback resolutions, failures).
	NormalRows   int64 `json:"normal_rows"`
	GeneralRows  int64 `json:"general_rows"`
	FallbackRows int64 `json:"fallback_rows"`
	FailedRows   int64 `json:"failed_rows"`
	// BytesRead is the cumulative raw input bytes consumed, including
	// the in-flight streamed chunk producer.
	BytesRead int64 `json:"bytes_read"`
	// RowsPerSec / BytesPerSec are input throughput since the previous
	// sample.
	RowsPerSec  float64 `json:"rows_per_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	// BusyExecutors counts executors running a task at sample time;
	// Executors is the pool size.
	BusyExecutors int `json:"busy_executors"`
	Executors     int `json:"executors"`
	// HeapBytes is the heap object bytes at sample time
	// (runtime.MemStats.HeapAlloc, read without stopping the world).
	HeapBytes uint64 `json:"heap_bytes"`
	// GCPauseNS / GCCycles are the GC pause time and cycle count since
	// the previous sample.
	GCPauseNS uint64 `json:"gc_pause_ns"`
	GCCycles  uint32 `json:"gc_cycles"`
}

// BusyFraction reports executor utilization at sample time.
func (s Sample) BusyFraction() float64 {
	if s.Executors == 0 {
		return 0
	}
	return float64(s.BusyExecutors) / float64(s.Executors)
}

// ring is a bounded sample buffer: a single writer (the sampler
// goroutine) appends, readers snapshot the chronological tail. It grows
// by append up to size samples, then wraps, so a short run holds only
// the samples it took. The mutex is held for one copy at the sampling
// interval, never on an executor path.
type ring struct {
	mu   sync.Mutex
	buf  []Sample
	size int
	next int // once full: the oldest sample's index
}

func newRing(size int) *ring { return &ring{size: size} }

func (r *ring) push(s Sample) {
	r.mu.Lock()
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			// Double, but never past size.
			grown := make([]Sample, len(r.buf), min(max(2*cap(r.buf), 4), r.size))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// snapshot returns up to max samples (0 = all retained) in
// chronological order.
func (r *ring) snapshot(max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Sample, n)
	for i := range n {
		out[i] = r.buf[(r.next-n+i+len(r.buf))%len(r.buf)]
	}
	return out
}

// RunMonitor is one run's live-monitoring state. All methods are safe
// on a nil receiver, so engine call sites never branch on whether
// telemetry is enabled.
type RunMonitor struct {
	id    int64
	cfg   Config
	start time.Time

	// m is the run's shared metrics (atomic counters the executors
	// already maintain; the sampler only reads them).
	m *metrics.Metrics

	executors int
	busy      atomic.Int32

	curStage  atomic.Int32
	numStages atomic.Int32

	// streamBytes is the in-flight chunk producer's cumulative byte
	// count for the current streamed stage (folded into
	// metrics.Ingest.BytesRead when the stage finishes).
	streamBytes atomic.Int64
	// totalBytes is the known input size (0 when unknown); the progress
	// view derives an ETA from it.
	totalBytes atomic.Int64

	// ChunkLatency records per-task (one partition / one streamed
	// chunk) processing wall time; ResolveLatency records per-row
	// exception-resolve wall time.
	ChunkLatency   *Histogram
	ResolveLatency *Histogram

	ring     *ring
	stop     chan struct{}
	done     chan struct{}
	finished atomic.Bool
	endNS    atomic.Int64

	// prev* carry sampler-goroutine-local state between ticks.
	prevNS      int64
	prevRows    int64
	prevBytes   int64
	prevGCPause uint64
	prevGCNum   uint64
	gc          metrics.GC // the sampler goroutine's reader
}

// NewRunMonitor builds a monitor over the run's shared metrics.
// executors is the configured worker-pool size.
func NewRunMonitor(cfg Config, m *metrics.Metrics, executors int) *RunMonitor {
	cfg = cfg.withDefaults()
	if executors < 1 {
		executors = 1
	}
	return &RunMonitor{
		cfg:            cfg,
		start:          time.Now(),
		m:              m,
		executors:      executors,
		ChunkLatency:   NewHistogram(),
		ResolveLatency: NewHistogram(),
		ring:           newRing(cfg.RingSize),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
}

// ID reports the registry-assigned run id (0 before registration).
func (m *RunMonitor) ID() int64 {
	if m == nil {
		return 0
	}
	return m.id
}

// Label reports the run's display label.
func (m *RunMonitor) Label() string {
	if m == nil {
		return ""
	}
	return m.cfg.Label
}

// Start launches the sampler goroutine. It takes one immediate sample
// so even runs shorter than the interval leave a time series.
func (m *RunMonitor) Start() {
	if m == nil {
		return
	}
	go func() {
		defer close(m.done)
		m.sampleOnce()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sampleOnce()
				return
			case <-t.C:
				m.sampleOnce()
			}
		}
	}()
}

// Stop takes a final sample, stops the sampler goroutine and marks the
// run finished. Idempotent.
func (m *RunMonitor) Stop() {
	if m == nil || m.finished.Swap(true) {
		return
	}
	m.endNS.Store(time.Since(m.start).Nanoseconds())
	close(m.stop)
	<-m.done
}

// Finished reports whether Stop has run.
func (m *RunMonitor) Finished() bool { return m != nil && m.finished.Load() }

// sampleOnce reads the shared counters and appends one sample to the
// ring. Runs on the sampler goroutine only.
func (m *RunMonitor) sampleOnce() {
	now := time.Since(m.start).Nanoseconds()
	c := &m.m.Counters
	rows := c.InputRows.Load()
	bytes := m.m.Ingest.BytesRead.Load() + m.streamBytes.Load()
	gc := m.gc.Read()
	s := Sample{
		AtNS:          now,
		Stage:         int(m.curStage.Load()),
		InputRows:     rows,
		OutputRows:    c.OutputRows.Load(),
		NormalRows:    c.NormalRows.Load(),
		GeneralRows:   c.GeneralResolved.Load(),
		FallbackRows:  c.FallbackResolved.Load(),
		FailedRows:    c.FailedRows.Load(),
		BytesRead:     bytes,
		BusyExecutors: int(m.busy.Load()),
		Executors:     m.executors,
		HeapBytes:     gc.HeapBytes,
		GCPauseNS:     gc.PauseNS - m.prevGCPause,
		GCCycles:      uint32(gc.Cycles - m.prevGCNum),
	}
	if dt := now - m.prevNS; dt > 0 {
		s.RowsPerSec = float64(rows-m.prevRows) / (float64(dt) / 1e9)
		s.BytesPerSec = float64(bytes-m.prevBytes) / (float64(dt) / 1e9)
	}
	m.prevNS, m.prevRows, m.prevBytes = now, rows, bytes
	m.prevGCPause, m.prevGCNum = gc.PauseNS, gc.Cycles
	m.ring.push(s)
}

// Samples returns up to max retained samples (0 = all) in
// chronological order.
func (m *RunMonitor) Samples(max int) []Sample {
	if m == nil {
		return nil
	}
	return m.ring.snapshot(max)
}

// LastSample returns the most recent sample (zero Sample, false when
// none taken yet).
func (m *RunMonitor) LastSample() (Sample, bool) {
	if m == nil {
		return Sample{}, false
	}
	s := m.ring.snapshot(1)
	if len(s) == 0 {
		return Sample{}, false
	}
	return s[0], true
}

// TotalBytes reports the known input size (0 = unknown).
func (m *RunMonitor) TotalBytes() int64 {
	if m == nil {
		return 0
	}
	return m.totalBytes.Load()
}

// Stage and Stages report current stage index and planned stage count.
func (m *RunMonitor) Stage() int {
	if m == nil {
		return 0
	}
	return int(m.curStage.Load())
}

func (m *RunMonitor) Stages() int {
	if m == nil {
		return 0
	}
	return int(m.numStages.Load())
}

// TaskStart marks one executor busy.
func (m *RunMonitor) TaskStart() {
	if m == nil {
		return
	}
	m.busy.Add(1)
}

// TaskDone marks one executor idle and records the task's wall time in
// the chunk-latency histogram.
func (m *RunMonitor) TaskDone(d time.Duration) {
	if m == nil {
		return
	}
	m.busy.Add(-1)
	m.ChunkLatency.Record(d.Nanoseconds())
}

// RecordResolve records one exception row's resolve wall time.
func (m *RunMonitor) RecordResolve(d time.Duration) {
	if m == nil {
		return
	}
	m.ResolveLatency.Record(d.Nanoseconds())
}

// SetStages records the run's planned stage count.
func (m *RunMonitor) SetStages(n int) {
	if m == nil {
		return
	}
	m.numStages.Store(int32(n))
}

// SetStage records the currently-executing stage index.
func (m *RunMonitor) SetStage(i int) {
	if m == nil {
		return
	}
	m.curStage.Store(int32(i))
}

// StoreStreamBytes publishes the in-flight chunk producer's cumulative
// byte count (reset to 0 when the stage folds it into the shared
// ingest counter).
func (m *RunMonitor) StoreStreamBytes(n int64) {
	if m == nil {
		return
	}
	m.streamBytes.Store(n)
}

// AddTotalBytes grows the known input size (for ETA).
func (m *RunMonitor) AddTotalBytes(n int64) {
	if m == nil {
		return
	}
	m.totalBytes.Add(n)
}

// Latency summarizes the run's latency histograms for
// metrics.Metrics.Latency.
func (m *RunMonitor) Latency() metrics.Latency {
	if m == nil {
		return metrics.Latency{}
	}
	return metrics.Latency{
		Chunk:   summarize(m.ChunkLatency),
		Resolve: summarize(m.ResolveLatency),
	}
}

func summarize(h *Histogram) metrics.LatencySummary {
	return metrics.LatencySummary{
		Count: h.Count(),
		P50:   time.Duration(h.Quantile(0.50)),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.Quantile(0.99)),
		Max:   time.Duration(h.Max()),
	}
}

// DurNS reports the run's duration so far (frozen at Stop).
func (m *RunMonitor) DurNS() int64 {
	if m == nil {
		return 0
	}
	if m.finished.Load() {
		return m.endNS.Load()
	}
	return time.Since(m.start).Nanoseconds()
}

// autoEnable counts active introspection servers; any run in the
// process is monitored while one is up.
var autoEnable atomic.Int32

// AutoEnabled reports whether an introspection server is active in the
// process (runs are then monitored even without an explicit opt-in).
func AutoEnabled() bool { return autoEnable.Load() > 0 }

// EnableProcess forces monitoring of every run in the process without
// starting a server (the TTY progress view uses it); call the returned
// release when done.
func EnableProcess() (release func()) {
	autoEnable.Add(1)
	return func() { autoEnable.Add(-1) }
}
