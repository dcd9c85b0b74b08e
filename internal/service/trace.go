package service

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// Job trace assembly: every finished job gets one span tree that starts
// at request arrival and nests the service-side phases (decode,
// fingerprint, on a cold submission build and plancheck, admission
// queue wait, plan-cache lookup) above the engine's own span tree,
// shifted onto the job clock.
// GET /v1/jobs/{id}/trace serves it natively or in Chrome trace-event
// form, and the slow-job log retains it for jobs over the configured
// threshold.

// newTraceID generates a 16-hex-char correlation id for submissions
// that did not propagate one via X-Tuplex-Trace.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID bounds a client-supplied id: printable subset, max 64
// chars; anything else is discarded (the server then generates one).
func sanitizeTraceID(id string) string {
	if len(id) > 64 {
		return ""
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// buildJobTrace assembles the combined job trace after the run
// finished. engine is the run's span tree (nil when execution never
// started or failed before producing one); its spans are shifted by the
// job's exec offset so everything shares the arrival-relative clock.
// The engine trace is owned by the job from here on (Shift mutates it).
func buildJobTrace(jb *job, engine *trace.Trace, total time.Duration) *trace.Trace {
	jb.mu.Lock()
	traceID, front, queueWait, lookupWait, execOffset := jb.traceID, jb.front, jb.queueWait, jb.lookupWait, jb.execOffset
	hit, state := jb.cacheHit, jb.state
	jb.mu.Unlock()

	root := &trace.Span{
		Name:  "job",
		DurNS: total.Nanoseconds(),
		Attrs: []trace.Attr{
			trace.Str("job", jb.id),
			trace.Str("trace_id", traceID),
			trace.Str("state", state),
			trace.Bool("cache_hit", hit),
		},
	}
	memo := "miss"
	if front.memoHit {
		memo = "hit"
	}
	root.Children = append(root.Children, &trace.Span{
		Name:    "decode",
		StartNS: front.decodeAt.Nanoseconds(),
		DurNS:   front.decode.Nanoseconds(),
		Attrs:   []trace.Attr{trace.Str("memo", memo)},
	}, &trace.Span{
		Name:    "fingerprint",
		StartNS: (front.decodeAt + front.decode).Nanoseconds(),
		DurNS:   front.fingerprint.Nanoseconds(),
	})
	if front.built {
		root.Children = append(root.Children, &trace.Span{
			Name:    "build",
			StartNS: front.buildAt.Nanoseconds(),
			DurNS:   front.build.Nanoseconds(),
		}, &trace.Span{
			Name:    "plancheck",
			StartNS: (front.buildAt + front.build).Nanoseconds(),
			DurNS:   front.plancheck.Nanoseconds(),
		})
	}
	root.Children = append(root.Children, &trace.Span{
		Name:    "admission",
		StartNS: front.admitAt.Nanoseconds(),
		DurNS:   (queueWait - front.admitAt).Nanoseconds(),
	})
	root.Children = append(root.Children, &trace.Span{
		Name:    "cache_lookup",
		StartNS: queueWait.Nanoseconds(),
		DurNS:   lookupWait.Nanoseconds(),
		Attrs:   []trace.Attr{trace.Bool("hit", hit)},
	})
	level := trace.LevelSpans
	if engine != nil && engine.Root != nil {
		trace.Shift(engine.Root, execOffset.Nanoseconds())
		root.Children = append(root.Children, engine.Root)
		if engine.Level > level {
			level = engine.Level
		}
	}
	return &trace.Trace{Level: level, Root: root}
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the assembled span
// tree natively (?format=native, the default) or as a Chrome
// trace-event document (?format=chrome) loadable in chrome://tracing
// and Perfetto.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request, jb *job) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET to fetch a job trace")
		return
	}
	t := jb.getTrace()
	if t == nil {
		httpError(w, http.StatusNotFound, "job %s has no trace yet (still %s)", jb.id, jb.status().State)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "native":
		writeJSON(w, http.StatusOK, t)
	case "chrome":
		b, err := t.MarshalChrome()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "rendering chrome trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	default:
		httpError(w, http.StatusBadRequest, "unknown trace format %q (native or chrome)", r.URL.Query().Get("format"))
	}
}

// maxSlowJobs bounds the slow-job log.
const maxSlowJobs = 32

// SlowJob is one slow-job log entry: the job's status (result stripped)
// plus its full trace, routing ledger included.
type SlowJob struct {
	Status JobStatus    `json:"status"`
	Trace  *trace.Trace `json:"trace,omitempty"`
}

// slowLog retains the most recent jobs that crossed the slow threshold.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowJob // oldest first
}

func (l *slowLog) add(e SlowJob) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if len(l.entries) > maxSlowJobs {
		// Shift down, as jobTable.retire does: a re-slice would keep
		// evicted entries and their traces reachable.
		n := copy(l.entries, l.entries[len(l.entries)-maxSlowJobs:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
	}
	l.mu.Unlock()
}

func (l *slowLog) snapshot() []SlowJob {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowJob(nil), l.entries...)
}

// handleSlowz serves /debug/tuplex/slowz: the retained slow jobs,
// oldest first, with the configured threshold.
func (s *Server) handleSlowz(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.snapshot()
	if entries == nil {
		entries = []SlowJob{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": s.cfg.SlowJobThreshold.Nanoseconds(),
		"slow_jobs":    entries,
	})
}

// noteSlow captures a job in the slow log (and the flight recorder)
// when it crossed the threshold.
func (s *Server) noteSlow(jb *job, dur time.Duration) {
	if s.cfg.SlowJobThreshold <= 0 || dur < s.cfg.SlowJobThreshold {
		return
	}
	st := jb.status() // timing and routing, not the result
	s.flight.Record(telemetry.EventSlow, jb.id, st.TraceID, dur.Nanoseconds(), "")
	s.slow.add(SlowJob{Status: st, Trace: jb.getTrace()})
}
