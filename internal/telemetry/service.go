package telemetry

import "sync/atomic"

// ServiceStats aggregates the tuplex-serve job lifecycle and
// compiled-plan cache counters. The service increments them; the
// introspection surface (/metrics, /debug/tuplex/runz) reports them
// alongside the per-run rows. All fields are atomics, so one instance
// is shared freely across request handlers.
type ServiceStats struct {
	JobsSubmitted atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsRejected  atomic.Int64
	JobsInvalid   atomic.Int64
	JobsCanceled  atomic.Int64

	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64
	// SpecMemoHits counts submissions served from a remembered request
	// body, without decoding it.
	SpecMemoHits atomic.Int64

	// QueueDepth / RunningJobs are gauges (current values).
	QueueDepth  atomic.Int64
	RunningJobs atomic.Int64

	// RetainedResultBytes is a gauge: the encoded result bytes the
	// finished-job ring holds. ResultsExpired counts finished jobs whose
	// result the ring dropped to stay under its byte budget.
	RetainedResultBytes atomic.Int64
	ResultsExpired      atomic.Int64

	// ColdLatency / WarmLatency record end-to-end job latency (ns) split
	// by cache outcome — the ≥10× cold-vs-warm spread is the service's
	// headline number.
	ColdLatency *Histogram
	WarmLatency *Histogram
}

// NewServiceStats returns a zeroed stats block with live histograms.
func NewServiceStats() *ServiceStats {
	return &ServiceStats{ColdLatency: NewHistogram(), WarmLatency: NewHistogram()}
}

// SetService attaches service stats to the registry; the introspection
// handlers pick them up on the next scrape. Nil-safe (detaches).
func (r *Registry) SetService(s *ServiceStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.service = s
	r.mu.Unlock()
}

// Service returns the attached service stats (nil when not serving).
func (r *Registry) Service() *ServiceStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.service
}
