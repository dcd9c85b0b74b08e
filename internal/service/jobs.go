package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// Job states. A job is queued between admission and execution start,
// running while the engine owns it, and exactly one of done / failed /
// canceled afterwards.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// maxRecentJobs bounds finished jobs retained for GET /v1/jobs/{id}.
const maxRecentJobs = 256

// JobStatus is the wire form of one job, returned by every /v1/jobs
// endpoint.
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	CacheHit    bool   `json:"cache_hit"`
	Fingerprint string `json:"fingerprint"`
	// TraceID is the client-propagated (X-Tuplex-Trace) or
	// server-generated correlation id threading this job through logs,
	// exemplars and the exported trace.
	TraceID string `json:"trace_id,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	// DurationNS is queue wait + execution so far (frozen at finish).
	DurationNS int64 `json:"duration_ns"`

	Error string `json:"error,omitempty"`
	// Events is the flight-recorder tail for this job, attached
	// automatically when the job failed so the error payload carries its
	// own context (admission, cache outcome, execution start).
	Events []telemetry.FlightEvent `json:"events,omitempty"`
	// Result is a finished job's output. A job retains it encoded, and
	// the reply splices those bytes in as this, the last member (see
	// writeJob); the field gives the document its shape for decoders.
	Result *JobResult `json:"result,omitempty"`
}

// JobResult carries a finished job's output and row accounting.
type JobResult struct {
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// Value is the aggregate-sink accumulator.
	Value any `json:"value,omitempty"`
	// CSV inlines csv-sink bytes when the sink has no output path;
	// CSVPath echoes the path otherwise.
	CSV     string `json:"csv,omitempty"`
	CSVPath string `json:"csv_path,omitempty"`
	// Truncated marks a Rows payload capped by the server's
	// max-result-rows limit (OutputRows still reports the full count).
	Truncated bool `json:"truncated,omitempty"`

	InputRows  int64 `json:"input_rows"`
	OutputRows int64 `json:"output_rows"`
	FailedRows int64 `json:"failed_rows"`
}

type job struct {
	mu          sync.Mutex
	id          string
	state       string
	cacheHit    bool
	fingerprint string
	submitted   time.Time
	finished    time.Time
	cancel      context.CancelFunc
	err         error
	// result is the finished job's JobResult, encoded once at finish
	// (encodeResult); nil until then and for jobs that did not succeed.
	result []byte

	// Observability state (see trace.go): the correlation id, the
	// service-side timing samples the job trace is assembled from, the
	// assembled trace itself, and the flight-recorder tail attached to
	// failures.
	traceID    string
	arrival    time.Time     // request arrival (before admission)
	queueWait  time.Duration // admission slot wait
	lookupWait time.Duration // plan-cache resolution (wait-on-flight)
	execOffset time.Duration // arrival → engine execution start
	jobTrace   *trace.Trace
	events     []telemetry.FlightEvent
}

// setAdmission stamps the pre-execution observability fields right
// after the job is created (the queue wait happened before it existed).
func (j *job) setAdmission(traceID string, arrival time.Time, queueWait time.Duration) {
	j.mu.Lock()
	j.traceID = traceID
	if !arrival.IsZero() {
		j.arrival = arrival
	}
	j.queueWait = queueWait
	j.mu.Unlock()
}

// noteLookup records how long plan-cache resolution took (≈0 for the
// compile owner, the wait-on-flight time for warm waiters).
func (j *job) noteLookup(d time.Duration) {
	j.mu.Lock()
	j.lookupWait = d
	j.mu.Unlock()
}

// noteExecStart records when engine execution began relative to
// arrival, so the engine span tree can be shifted onto the job clock.
func (j *job) noteExecStart() {
	j.mu.Lock()
	j.execOffset = time.Since(j.arrival)
	j.mu.Unlock()
}

// setTrace publishes the assembled job trace for GET /v1/jobs/{id}/trace.
func (j *job) setTrace(t *trace.Trace) {
	j.mu.Lock()
	j.jobTrace = t
	j.mu.Unlock()
}

func (j *job) getTrace() *trace.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jobTrace
}

// setEvents attaches the flight-recorder tail (failed jobs only).
func (j *job) setEvents(ev []telemetry.FlightEvent) {
	j.mu.Lock()
	j.events = ev
	j.mu.Unlock()
}

func (j *job) setRunning(cancel context.CancelFunc) {
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
}

func (j *job) finish(state string, hit bool, res []byte, err error) {
	j.mu.Lock()
	j.state = state
	j.cacheHit = hit
	j.result = res
	j.err = err
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()
}

// requestCancel fires the job's cancel func if it is still running and
// reports the state observed.
func (j *job) requestCancel() string {
	j.mu.Lock()
	cancel, state := j.cancel, j.state
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return state
}

// status snapshots the job's wire form without its result.
func (j *job) status() JobStatus {
	s, _ := j.reply()
	return s
}

// reply snapshots the job's status and its encoded result together.
func (j *job) reply() (JobStatus, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:          j.id,
		State:       j.state,
		CacheHit:    j.cacheHit,
		Fingerprint: j.fingerprint,
		TraceID:     j.traceID,
		SubmittedAt: j.submitted,
		Events:      j.events,
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	s.DurationNS = end.Sub(j.submitted).Nanoseconds()
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s, j.result
}

// jobTable tracks live jobs plus a bounded ring of finished ones so
// clients can poll async submissions after completion.
type jobTable struct {
	mu     sync.Mutex
	nextID int64
	live   map[string]*job
	recent []*job // oldest first
}

func newJobTable() *jobTable {
	return &jobTable{live: make(map[string]*job)}
}

func (t *jobTable) create(fingerprint string) *job {
	t.mu.Lock()
	t.nextID++
	now := time.Now()
	j := &job{
		id:          fmt.Sprintf("j%06d", t.nextID),
		state:       StateQueued,
		fingerprint: fingerprint,
		submitted:   now,
		arrival:     now, // refined by setAdmission when known
	}
	t.live[j.id] = j
	t.mu.Unlock()
	return j
}

// retire moves a finished job from the live set to the recent ring.
func (t *jobTable) retire(j *job) {
	t.mu.Lock()
	if _, ok := t.live[j.id]; ok {
		delete(t.live, j.id)
		t.recent = append(t.recent, j)
		if len(t.recent) > maxRecentJobs {
			// Shift down rather than re-slice: a re-slice keeps evicted
			// jobs — and their inline results — reachable through the
			// backing array until append happens to reallocate it.
			n := copy(t.recent, t.recent[len(t.recent)-maxRecentJobs:])
			clear(t.recent[n:])
			t.recent = t.recent[:n]
		}
	}
	t.mu.Unlock()
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.live[id]; ok {
		return j
	}
	for i := len(t.recent) - 1; i >= 0; i-- {
		if t.recent[i].id == id {
			return t.recent[i]
		}
	}
	return nil
}

// list snapshots every known job, live first, newest last within each
// group.
func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*job, 0, len(t.live)+len(t.recent))
	for _, j := range t.live {
		out = append(out, j)
	}
	out = append(out, t.recent...)
	return out
}
