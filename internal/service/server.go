package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// Server is the tuplex-serve daemon: the telemetry introspection
// surface (/metrics, /debug/tuplex/runz, pprof) plus the /v1/jobs API
// with admission control and the compiled-pipeline cache.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	stats *telemetry.ServiceStats
	cache *planCache
	jobs  *jobTable
	// check is the admission verifier (plancheck.CheckParsed; tests
	// wrap it to see which parse it analyzed).
	check  func(*spec.Pipeline, spec.Parsed) []plancheck.Diagnostic
	flight *telemetry.FlightRecorder
	slow   *slowLog

	// sem holds one token per executing job (admission control).
	sem      chan struct{}
	draining atomic.Bool
	inflight sync.WaitGroup

	ln      net.Listener
	hsrv    *http.Server
	started bool
	done    chan struct{}
	release func() // telemetry process auto-enable
	closed  sync.Once
}

// New builds a server (not yet listening). While the server lives,
// every engine run in the process is telemetry-monitored, so each job
// shows up as its own row in /runz labeled with its job id.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		stats:   telemetry.NewServiceStats(),
		jobs:    newJobTable(),
		check:   plancheck.CheckParsed,
		flight:  telemetry.NewFlightRecorder(cfg.FlightEvents),
		slow:    &slowLog{},
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		done:    make(chan struct{}),
		release: telemetry.EnableProcess(),
	}
	s.cache = newPlanCache(cfg.CacheEntries, s.stats)
	cfg.Registry.SetService(s.stats)
	cfg.Registry.SetFlight(s.flight)
	s.mux = telemetry.NewMux(cfg.Registry)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/validate", s.handleValidate)
	s.mux.HandleFunc("/debug/tuplex/slowz", s.handleSlowz)
	return s
}

// Serve builds a server and starts listening on cfg.Addr.
func Serve(cfg Config) (*Server, error) {
	s := New(cfg)
	if err := s.Start(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Start binds the listen address and serves in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux}
	s.started = true
	go func() {
		defer close(s.done)
		s.hsrv.Serve(ln)
	}()
	return nil
}

// Addr reports the listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Handler exposes the full mux (tests drive it via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Stats exposes the live service counters.
func (s *Server) Stats() *telemetry.ServiceStats { return s.stats }

// Close stops the listener immediately. In-flight jobs keep their
// slots until they notice cancellation; prefer Drain for shutdown.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		if s.started {
			err = s.hsrv.Close()
			<-s.done
		}
		s.release()
	})
	return err
}

// Drain is the graceful-shutdown path (SIGTERM): stop admitting
// (503 from here on), wait up to DrainTimeout for in-flight jobs, then
// cancel stragglers and close. ctx aborts the wait early.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.flight.Record(telemetry.EventDrain, "", "", 0, "")
	idle := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(idle)
	}()
	t := time.NewTimer(s.cfg.DrainTimeout)
	defer t.Stop()
	select {
	case <-idle:
	case <-t.C:
		s.cancelAll()
		select {
		case <-idle:
		case <-ctx.Done():
		}
	case <-ctx.Done():
		s.cancelAll()
	}
	return s.Close()
}

func (s *Server) cancelAll() {
	for _, j := range s.jobs.list() {
		j.requestCancel()
	}
}

// ---- handlers ----

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list jobs")
	}
}

// handleSubmit admits and runs one job. Default is synchronous (the
// response carries the result); ?wait=false answers 202 immediately
// and the client polls GET /v1/jobs/{id}.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	traceID := sanitizeTraceID(r.Header.Get("X-Tuplex-Trace"))
	if traceID == "" {
		traceID = newTraceID()
	}
	if s.draining.Load() {
		s.flight.Record(telemetry.EventReject, "", traceID, 0, "draining")
		s.reject(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.flight.Record(telemetry.EventReject, "", traceID, 0, "body too large")
		s.reject(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	p, err := spec.Decode(body)
	if err != nil {
		if diags := decodeDiagnostics(err); diags != nil {
			s.rejectInvalid(w, traceID, diags)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.MemoryBudget > 0 {
		if n := estimateInputBytes(p); n > s.cfg.MemoryBudget {
			s.flight.Record(telemetry.EventReject, "", traceID, 0, "memory budget")
			s.reject(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job references ~%d input bytes, per-job budget is %d", n, s.cfg.MemoryBudget))
			return
		}
	}
	fp, err := p.Fingerprint()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Fail-fast admission: a spec the verifier can prove broken is
	// turned away before it consumes a queue slot or a cache flight.
	// Warm resubmissions skip the verifier entirely — a cached plan
	// already passed it (and the compiler) on its cold submission, so
	// the warm path stays at cache-hit cost. A cold one is built first
	// and checked over that build's parse, so each UDF is parsed once.
	var built *spec.Built
	if !s.cache.has(fp) {
		var diags []plancheck.Diagnostic
		if built, diags = s.buildChecked(p); plancheck.HasErrors(diags) {
			s.rejectInvalid(w, traceID, diags)
			return
		}
	}

	// Admission happens before the job exists: a rejected submission
	// leaves no trace beyond the rejected counter. The queue wait is
	// bounded by the request timeout.
	actx, acancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	if err := s.admit(actx, traceID); err != nil {
		acancel()
		s.stats.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	queueWait := time.Since(arrival)
	s.stats.JobsSubmitted.Add(1)
	jb := s.jobs.create(fp)
	jb.setAdmission(traceID, arrival, queueWait)
	s.flight.Record(telemetry.EventAdmit, jb.id, traceID, queueWait.Nanoseconds(), "")
	s.inflight.Add(1)

	if r.URL.Query().Get("wait") == "false" {
		acancel()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
			defer cancel()
			s.runJob(ctx, jb, p, built)
		}()
		writeJob(w, http.StatusAccepted, jb)
		return
	}
	defer acancel()
	s.runJob(actx, jb, p, built)
	code := http.StatusOK
	switch jb.status().State {
	case StateFailed:
		code = http.StatusInternalServerError
	case StateCanceled:
		code = http.StatusGatewayTimeout
	}
	writeJob(w, code, jb)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })
	sts := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		sts[i] = j.status() // no result: listings stay light; fetch one job for rows
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": sts})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	sub := ""
	if i := strings.Index(id, "/"); i >= 0 {
		id, sub = id[:i], id[i+1:]
	}
	if id == "" || (sub != "" && sub != "trace") {
		httpError(w, http.StatusNotFound, "no such resource")
		return
	}
	jb := s.jobs.get(id)
	if jb == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if sub == "trace" {
		s.handleJobTrace(w, r, jb)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJob(w, http.StatusOK, jb)
	case http.MethodDelete:
		jb.requestCancel()
		writeJob(w, http.StatusOK, jb)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET for status or DELETE to cancel")
	}
}

// ---- execution ----

// admit takes an execution slot, queueing up to QueueDepth waiters.
// Shed submissions (429) leave a flight-recorder event — they are
// exactly what an operator looks for after an overload incident.
func (s *Server) admit(ctx context.Context, traceID string) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.QueueDepth == 0 {
		s.flight.Record(telemetry.EventShed, "", traceID, 0, "queueing disabled")
		return fmt.Errorf("service at capacity (%d jobs running, queueing disabled)", s.cfg.MaxConcurrent)
	}
	if n := s.stats.QueueDepth.Add(1); n > int64(s.cfg.QueueDepth) {
		s.stats.QueueDepth.Add(-1)
		s.flight.Record(telemetry.EventShed, "", traceID, 0, "queue full")
		return fmt.Errorf("service at capacity (%d jobs running, %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth)
	}
	defer s.stats.QueueDepth.Add(-1)
	s.flight.Record(telemetry.EventQueue, "", traceID, 0, "")
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.flight.Record(telemetry.EventShed, "", traceID, 0, "queue wait aborted")
		return fmt.Errorf("queue wait aborted: %w", context.Cause(ctx))
	}
}

// buildChecked builds p once and statically verifies it over that
// build's UDF parses. When Build fails, the checker parses on its own
// and reports what it finds (a broken UDF is TPX010); built is then nil.
func (s *Server) buildChecked(p *spec.Pipeline) (*spec.Built, []plancheck.Diagnostic) {
	built, parsed, err := p.BuildParsed()
	if err != nil {
		return nil, s.check(p, nil)
	}
	return built, s.check(p, parsed)
}

// runJob executes one admitted job (the caller holds its slot) and
// records its lifecycle. Blocking; async submissions wrap it in a
// goroutine. built, when non-nil, is p already built at admission.
func (s *Server) runJob(ctx context.Context, jb *job, p *spec.Pipeline, built *spec.Built) {
	defer s.inflight.Done()
	defer func() { <-s.sem }()
	defer s.jobs.retire(jb)

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jb.setRunning(cancel)
	s.stats.RunningJobs.Add(1)
	defer s.stats.RunningJobs.Add(-1)

	t0 := time.Now()
	res, built, hit, err := s.execute(jctx, jb, p, built)
	dur := time.Since(t0)
	// The result is encoded once, here: the job keeps the bytes, and the
	// engine's boxed rows become garbage when runJob returns. A value with
	// no JSON encoding (a NaN or infinite float) fails the job.
	var result []byte
	if err == nil {
		if result, err = encodeResult(shapeResult(built, res, s.cfg.MaxResultRows)); err != nil {
			err = fmt.Errorf("service: encoding result: %w", err)
		}
	}
	// End-to-end latency (what the exemplars and slow log key on) is
	// measured from request arrival, queue wait included.
	total := time.Since(jb.arrival)
	switch {
	case err == nil:
		s.stats.JobsCompleted.Add(1)
		if hit {
			s.stats.WarmLatency.RecordExemplar(dur.Nanoseconds(), jb.id, jb.traceID)
		} else {
			s.stats.ColdLatency.RecordExemplar(dur.Nanoseconds(), jb.id, jb.traceID)
		}
		jb.finish(StateDone, hit, result, nil)
		s.flight.Record(telemetry.EventDone, jb.id, jb.traceID, total.Nanoseconds(), "")
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.stats.JobsCanceled.Add(1)
		jb.finish(StateCanceled, hit, nil, err)
		s.flight.Record(telemetry.EventCanceled, jb.id, jb.traceID, total.Nanoseconds(), "")
	default:
		s.stats.JobsFailed.Add(1)
		jb.finish(StateFailed, hit, nil, err)
		// The error payload carries the job's own black-box tail so the
		// failure arrives with its context attached.
		s.flight.Record(telemetry.EventFailed, jb.id, jb.traceID, total.Nanoseconds(), "")
		jb.setEvents(s.flight.JobEvents(jb.id, 32))
	}
	var engineTrace *trace.Trace
	if res != nil {
		engineTrace = res.Trace
	}
	jb.setTrace(buildJobTrace(jb, engineTrace, total))
	s.noteSlow(jb, total)
}

// execute resolves the job through the plan cache: own the flight
// (compile fresh, capturing the plan), or wait on the in-flight owner
// and re-execute the cached plan. A failed flight is retried by the
// next submitter rather than poisoning the key. The admission build
// (prebuilt, possibly nil) is compiled at most once; any later compile
// builds afresh.
func (s *Server) execute(ctx context.Context, jb *job, p *spec.Pipeline, prebuilt *spec.Built) (*core.Result, *spec.Built, bool, error) {
	build := func() (*spec.Built, error) {
		if b := prebuilt; b != nil {
			prebuilt = nil
			return b, nil
		}
		return p.Build()
	}
	lookup := time.Now()
	for attempt := 0; attempt < 4; attempt++ {
		e, owner := s.cache.acquire(jb.fingerprint)
		if owner {
			jb.noteLookup(time.Since(lookup))
			s.flight.Record(telemetry.EventCompile, jb.id, jb.traceID, 0, "")
			built, err := build()
			if err != nil {
				s.cache.fail(e, err)
				return nil, nil, false, err
			}
			s.tuneOpts(built, jb)
			s.stats.CacheMisses.Add(1)
			s.flight.Record(telemetry.EventExecute, jb.id, jb.traceID, 0, "")
			jb.noteExecStart()
			res, cp, err := core.CompileAndExecute(ctx, built.Node, built.Kind, built.CSVPath, built.Opts)
			if err != nil {
				s.cache.fail(e, err)
				return nil, built, false, err
			}
			s.cache.complete(e, cp, built)
			return res, built, false, nil
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, nil, false, fmt.Errorf("service: %w", context.Cause(ctx))
		}
		if e.err != nil {
			continue // the owner failed; compete to compile it ourselves
		}
		jb.noteLookup(time.Since(lookup))
		s.stats.CacheHits.Add(1)
		s.flight.Record(telemetry.EventCacheHit, jb.id, jb.traceID, 0, "")
		s.flight.Record(telemetry.EventExecute, jb.id, jb.traceID, 0, "")
		jb.noteExecStart()
		res, err := e.plan.ExecuteLabeled(ctx, e.built.CSVPath, jb.id)
		return res, e.built, true, err
	}
	// Pathological churn of failing flights: run once, uncached.
	jb.noteLookup(time.Since(lookup))
	built, err := build()
	if err != nil {
		return nil, nil, false, err
	}
	s.tuneOpts(built, jb)
	s.stats.CacheMisses.Add(1)
	s.flight.Record(telemetry.EventExecute, jb.id, jb.traceID, 0, "")
	jb.noteExecStart()
	res, err := core.ExecuteContext(ctx, built.Node, built.Kind, built.CSVPath, built.Opts)
	return res, built, false, err
}

// tuneOpts applies the server's per-job budgets and telemetry labeling
// on top of the spec's options. The collect sink boxes only the rows the
// reply inlines (rowLimit), so a capped result neither boxes nor retains
// the rest. A cached plan keeps the options it was compiled with; the
// limit depends only on the spec and the server's configuration, both
// part of what a plan is cached under.
func (s *Server) tuneOpts(b *spec.Built, jb *job) {
	o := &b.Opts
	if s.cfg.ExecutorsPerJob > 0 && (o.Executors <= 0 || o.Executors > s.cfg.ExecutorsPerJob) {
		o.Executors = s.cfg.ExecutorsPerJob
	}
	o.CollectLimit = max(rowLimit(b, s.cfg.MaxResultRows), 1) // 0 would box every row
	o.Telemetry.Enabled = true
	o.Telemetry.Label = jb.id
	// Service jobs always carry a routing ledger in their trace: the
	// per-op normal/general/fallback row counts are the first thing an
	// operator reads from GET /v1/jobs/{id}/trace. Warm re-executions
	// inherit this (compiled plans run with the options they were
	// compiled under), so the ledger is there on cache hits too.
	if o.Trace < trace.LevelRows {
		o.Trace = trace.LevelRows
	}
}

// rowLimit is the number of result rows a job's reply inlines: the
// server's cap, or the spec's take when smaller.
func rowLimit(b *spec.Built, maxRows int) int {
	if b.Take >= 0 && b.Take < maxRows {
		return b.Take
	}
	return maxRows
}

// shapeResult renders an engine result into the job's wire form,
// honoring the sink kind, a take cap and the server row limit.
func shapeResult(b *spec.Built, res *core.Result, maxRows int) *JobResult {
	jr := &JobResult{
		InputRows:  res.Metrics.Counters.InputRows.Load(),
		OutputRows: res.Metrics.Counters.OutputRows.Load(),
		FailedRows: int64(len(res.Failed)),
	}
	if res.Schema != nil {
		jr.Columns = res.Schema.Names()
	}
	switch {
	case b.IsAgg:
		if vals := spec.ResultRows(res, 1); len(vals) == 1 && len(vals[0]) == 1 {
			jr.Value = vals[0][0]
		}
		jr.Columns = nil
	case b.Kind == core.SinkCSV:
		if b.CSVPath != "" {
			jr.CSVPath = b.CSVPath
		} else {
			jr.CSV = string(res.CSV)
		}
	default:
		jr.Rows = spec.ResultRows(res, rowLimit(b, maxRows))
		total := spec.ResultLen(res)
		if b.Take >= 0 && b.Take < total {
			total = b.Take
		}
		jr.Truncated = len(jr.Rows) < total
	}
	return jr
}

// estimateInputBytes sizes a job's referenced input for the memory
// budget: inline data verbatim, file-backed sources by on-disk size
// (join build sides included), inline rows at a nominal 64 bytes each.
func estimateInputBytes(p *spec.Pipeline) int64 {
	if p == nil {
		return 0
	}
	n := int64(len(p.Source.Data))
	if p.Source.Path != "" && len(p.Source.Rows) == 0 {
		for _, path := range strings.Split(p.Source.Path, ",") {
			if fi, err := os.Stat(strings.TrimSpace(path)); err == nil {
				n += fi.Size()
			}
		}
	}
	n += int64(len(p.Source.Rows)) * 64
	for i := range p.Ops {
		n += estimateInputBytes(p.Ops[i].Build)
	}
	return n
}

// encodeResult renders a job result as json.Marshal does, in one pass:
// rows and the aggregate value go through spec's typed appender, the
// other fields are written in JobResult's field order.
func encodeResult(jr *JobResult) ([]byte, error) {
	size := 256
	if len(jr.Rows) > 0 {
		// Presize at 12 bytes a cell (Zillow's rows take about 11.5).
		size += len(jr.Rows) * (2 + 12*len(jr.Rows[0]))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, '{')
	member := func(name string) {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, name...)
		buf = append(buf, '"', ':')
	}
	var err error
	if len(jr.Columns) > 0 {
		member("columns")
		if buf, err = spec.AppendValue(buf, jr.Columns); err != nil {
			return nil, err
		}
	}
	if len(jr.Rows) > 0 {
		member("rows")
		if buf, err = spec.AppendResult(buf, jr.Columns, jr.Rows); err != nil {
			return nil, err
		}
	}
	if jr.Value != nil {
		member("value")
		if buf, err = spec.AppendValue(buf, jr.Value); err != nil {
			return nil, fmt.Errorf("aggregate value: %w", err)
		}
	}
	for _, f := range [...]struct{ name, v string }{{"csv", jr.CSV}, {"csv_path", jr.CSVPath}} {
		if f.v != "" {
			member(f.name)
			buf, _ = spec.AppendValue(buf, f.v) // a string always encodes
		}
	}
	if jr.Truncated {
		member("truncated")
		buf = append(buf, "true"...)
	}
	for _, f := range [...]struct {
		name string
		n    int64
	}{{"input_rows", jr.InputRows}, {"output_rows", jr.OutputRows}, {"failed_rows", jr.FailedRows}} {
		member(f.name)
		buf = strconv.AppendInt(buf, f.n, 10)
	}
	buf = append(buf, '}')
	// The job retains these bytes: drop the growth slack.
	if cap(buf)-len(buf) > len(buf)/8 {
		buf = bytes.Clone(buf)
	}
	return buf, nil
}

// ---- wire helpers ----

// writeJob answers with a job's status document. The small status fields
// are marshaled per reply; the job's encoded result, when it has one, is
// spliced in as the last member without being re-encoded, so the body is
// byte-identical to writeJSON of the status with its result set.
func writeJob(w http.ResponseWriter, code int, jb *job) {
	st, result := jb.reply()
	head, err := json.Marshal(st)
	if err != nil || result == nil {
		writeJSON(w, code, st)
		return
	}
	head = append(head[:len(head)-1], `,"result":`...) // drop the closing brace
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(result)+2))
	w.WriteHeader(code)
	w.Write(head)
	w.Write(result)
	w.Write([]byte("}\n"))
}

// writeJSON answers with v as compact JSON plus a newline, the bytes
// json.Encoder writes. A value that does not encode is answered with a
// 500 error document, never with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encoding reply: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	s.stats.JobsRejected.Add(1)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, code, "%s", msg)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
