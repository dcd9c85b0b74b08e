package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Server is a live introspection HTTP server over a run registry:
// /metrics (Prometheus text exposition), /debug/tuplex/runz (JSON live
// + recent runs with stage progress) and the stdlib pprof handlers
// under /debug/pprof/. While at least one Server is open, every run in
// the process is monitored (AutoEnabled), so attaching a scraper to a
// long-lived service needs no per-run opt-in.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts an introspection server on addr (e.g. ":9090" or
// "127.0.0.1:0") over the process registry. The caller must Close it.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: NewMux(Default)},
		done: make(chan struct{}),
	}
	autoEnable.Add(1)
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr reports the server's listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the process-wide auto-enable.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	autoEnable.Add(-1)
	return err
}

// NewMux builds the introspection handler over a registry (exported so
// tests can drive it with httptest and private registries).
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Exemplars are only legal in the OpenMetrics exposition format,
		// so they appear only when the scraper negotiates it; the classic
		// text format stays byte-identical to what it was without them.
		om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
		if om {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		writePrometheus(w, reg, om)
		if om {
			fmt.Fprintln(w, "# EOF")
		}
	})
	mux.HandleFunc("/debug/tuplex/eventz", func(w http.ResponseWriter, r *http.Request) {
		maxEvents := 0
		if v := r.URL.Query().Get("max"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				maxEvents = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(eventzReport(reg.Flight(), r.URL.Query().Get("job"), maxEvents))
	})
	mux.HandleFunc("/debug/tuplex/runz", func(w http.ResponseWriter, r *http.Request) {
		maxSamples := 0
		if v := r.URL.Query().Get("samples"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				maxSamples = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(runzReport(reg, maxSamples))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// RunReport is one run's entry in /debug/tuplex/runz.
type RunReport struct {
	ID    int64  `json:"id"`
	Label string `json:"label"`
	Live  bool   `json:"live"`
	// Stage / Stages give stage progress (Stage is the index currently
	// executing).
	Stage  int   `json:"stage"`
	Stages int   `json:"stages"`
	DurNS  int64 `json:"dur_ns"`

	InputRows    int64 `json:"input_rows"`
	OutputRows   int64 `json:"output_rows"`
	NormalRows   int64 `json:"normal_rows"`
	GeneralRows  int64 `json:"general_rows"`
	FallbackRows int64 `json:"fallback_rows"`
	FailedRows   int64 `json:"failed_rows"`
	BytesRead    int64 `json:"bytes_read"`
	TotalBytes   int64 `json:"total_bytes,omitempty"`

	RowsPerSec    float64 `json:"rows_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	BusyExecutors int     `json:"busy_executors"`
	Executors     int     `json:"executors"`
	HeapBytes     uint64  `json:"heap_bytes"`

	ChunkP50NS   int64 `json:"chunk_p50_ns"`
	ChunkP99NS   int64 `json:"chunk_p99_ns"`
	ResolveP50NS int64 `json:"resolve_p50_ns"`
	ResolveP99NS int64 `json:"resolve_p99_ns"`

	// Columnar batch-plane activity.
	ColumnarRows    int64   `json:"columnar_rows"`
	FusedPasses     int64   `json:"fused_passes"`
	NullElisionRate float64 `json:"null_elision_rate"`
	VectorRows      int64   `json:"vector_rows"`
	VectorBailRows  int64   `json:"vector_bail_rows"`

	// Samples is the time-series tail (?samples=N, newest last).
	Samples []Sample `json:"samples,omitempty"`
}

// RunzReport is the /debug/tuplex/runz payload.
type RunzReport struct {
	Live    []RunReport    `json:"live"`
	Recent  []RunReport    `json:"recent"`
	Service *ServiceReport `json:"service,omitempty"`
}

// ServiceReport is the job-service section of /debug/tuplex/runz,
// present only when a tuplex-serve daemon owns the registry.
type ServiceReport struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsInvalid   int64 `json:"jobs_invalid"`
	JobsCanceled  int64 `json:"jobs_canceled"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	SpecMemoHits   int64 `json:"spec_memo_hits"`

	RetainedResultBytes int64 `json:"retained_result_bytes"`
	ResultsExpired      int64 `json:"results_expired"`

	QueueDepth  int64 `json:"queue_depth"`
	RunningJobs int64 `json:"running_jobs"`

	ColdP50NS int64 `json:"cold_p50_ns"`
	ColdP99NS int64 `json:"cold_p99_ns"`
	WarmP50NS int64 `json:"warm_p50_ns"`
	WarmP99NS int64 `json:"warm_p99_ns"`

	// Exemplars link the latency tails to concrete jobs: the job/trace
	// id retained nearest each histogram's p99 (absent until a job with
	// an id lands in that region).
	ColdP99Exemplar *Exemplar `json:"cold_p99_exemplar,omitempty"`
	WarmP99Exemplar *Exemplar `json:"warm_p99_exemplar,omitempty"`
}

// EventzReport is the /debug/tuplex/eventz payload: the flight
// recorder's retained lifecycle events, oldest first.
type EventzReport struct {
	// Dropped counts events lost to ring wrap-around since start.
	Dropped int64         `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

func eventzReport(f *FlightRecorder, job string, maxEvents int) EventzReport {
	var rep EventzReport
	if job != "" {
		rep.Events = f.JobEvents(job, maxEvents)
	} else {
		rep.Events, rep.Dropped = f.Snapshot(maxEvents)
	}
	if rep.Events == nil {
		rep.Events = []FlightEvent{}
	}
	return rep
}

func serviceReport(st *ServiceStats) *ServiceReport {
	if st == nil {
		return nil
	}
	rep := &ServiceReport{
		JobsSubmitted:  st.JobsSubmitted.Load(),
		JobsCompleted:  st.JobsCompleted.Load(),
		JobsFailed:     st.JobsFailed.Load(),
		JobsRejected:   st.JobsRejected.Load(),
		JobsInvalid:    st.JobsInvalid.Load(),
		JobsCanceled:   st.JobsCanceled.Load(),
		CacheHits:      st.CacheHits.Load(),
		CacheMisses:    st.CacheMisses.Load(),
		CacheEvictions: st.CacheEvictions.Load(),
		SpecMemoHits:   st.SpecMemoHits.Load(),
		QueueDepth:     st.QueueDepth.Load(),
		RunningJobs:    st.RunningJobs.Load(),
		ColdP50NS:      st.ColdLatency.Quantile(0.50),
		ColdP99NS:      st.ColdLatency.Quantile(0.99),
		WarmP50NS:      st.WarmLatency.Quantile(0.50),
		WarmP99NS:      st.WarmLatency.Quantile(0.99),

		RetainedResultBytes: st.RetainedResultBytes.Load(),
		ResultsExpired:      st.ResultsExpired.Load(),
	}
	if e, ok := st.ColdLatency.ExemplarNear(0.99); ok {
		rep.ColdP99Exemplar = &e
	}
	if e, ok := st.WarmLatency.ExemplarNear(0.99); ok {
		rep.WarmP99Exemplar = &e
	}
	return rep
}

func runzReport(reg *Registry, maxSamples int) RunzReport {
	var rep RunzReport
	for _, m := range reg.Live() {
		rep.Live = append(rep.Live, runReport(m, true, maxSamples))
	}
	for _, m := range reg.Recent() {
		rep.Recent = append(rep.Recent, runReport(m, false, maxSamples))
	}
	rep.Service = serviceReport(reg.Service())
	return rep
}

func runReport(m *RunMonitor, live bool, maxSamples int) RunReport {
	r := RunReport{
		ID:           m.ID(),
		Label:        m.Label(),
		Live:         live,
		Stage:        m.Stage(),
		Stages:       m.Stages(),
		DurNS:        m.DurNS(),
		TotalBytes:   m.TotalBytes(),
		Executors:    m.executors,
		ChunkP50NS:   m.ChunkLatency.Quantile(0.50),
		ChunkP99NS:   m.ChunkLatency.Quantile(0.99),
		ResolveP50NS: m.ResolveLatency.Quantile(0.50),
		ResolveP99NS: m.ResolveLatency.Quantile(0.99),
	}
	if mm := m.m; mm != nil {
		b := &mm.Batch
		r.ColumnarRows = b.ColumnarRows.Load()
		r.FusedPasses = b.FusedPasses.Load()
		r.NullElisionRate = b.ElisionRate()
		r.VectorRows = b.VectorRows.Load()
		r.VectorBailRows = b.VectorBailRows.Load()
	}
	// Counter reads go through the last sample so live and finished
	// runs report from the same source the sampler wrote.
	if s, ok := m.LastSample(); ok {
		r.InputRows, r.OutputRows = s.InputRows, s.OutputRows
		r.NormalRows, r.GeneralRows = s.NormalRows, s.GeneralRows
		r.FallbackRows, r.FailedRows = s.FallbackRows, s.FailedRows
		r.BytesRead = s.BytesRead
		r.RowsPerSec, r.BytesPerSec = s.RowsPerSec, s.BytesPerSec
		r.BusyExecutors = s.BusyExecutors
		r.HeapBytes = s.HeapBytes
	}
	if maxSamples > 0 {
		r.Samples = m.Samples(maxSamples)
	}
	return r
}

// promEscape escapes a label value for the Prometheus text format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func runLabels(m *RunMonitor) string {
	return fmt.Sprintf(`run="%d",label="%s"`, m.ID(), promEscape(m.Label()))
}

// writePrometheus renders the registry in Prometheus text exposition
// format (hand-rolled: the repo takes no dependencies). When om is set
// (OpenMetrics negotiated) the service latency histograms carry
// exemplars; everything else is format-compatible with both.
func writePrometheus(w http.ResponseWriter, reg *Registry, om bool) {
	writeServicePrometheus(w, reg.Service(), om)
	live, recent := reg.Live(), reg.Recent()
	fmt.Fprintf(w, "# HELP tuplex_runs_live Number of runs currently executing.\n")
	fmt.Fprintf(w, "# TYPE tuplex_runs_live gauge\n")
	fmt.Fprintf(w, "tuplex_runs_live %d\n", len(live))
	fmt.Fprintf(w, "# HELP tuplex_runs_recent Number of retained finished runs.\n")
	fmt.Fprintf(w, "# TYPE tuplex_runs_recent gauge\n")
	fmt.Fprintf(w, "tuplex_runs_recent %d\n", len(recent))

	all := append(append([]*RunMonitor(nil), live...), recent...)
	if len(all) == 0 {
		return
	}

	counter := func(name, help string, get func(Sample) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, m := range all {
			s, _ := m.LastSample()
			fmt.Fprintf(w, "%s{%s} %d\n", name, runLabels(m), get(s))
		}
	}
	counter("tuplex_input_rows_total", "Input rows read.", func(s Sample) int64 { return s.InputRows })
	counter("tuplex_output_rows_total", "Rows that reached the sink.", func(s Sample) int64 { return s.OutputRows })
	counter("tuplex_bytes_read_total", "Raw input bytes consumed.", func(s Sample) int64 { return s.BytesRead })

	fmt.Fprintf(w, "# HELP tuplex_path_rows_total Rows by processing path.\n# TYPE tuplex_path_rows_total counter\n")
	for _, m := range all {
		s, _ := m.LastSample()
		lbl := runLabels(m)
		fmt.Fprintf(w, "tuplex_path_rows_total{%s,path=\"normal\"} %d\n", lbl, s.NormalRows)
		fmt.Fprintf(w, "tuplex_path_rows_total{%s,path=\"general\"} %d\n", lbl, s.GeneralRows)
		fmt.Fprintf(w, "tuplex_path_rows_total{%s,path=\"fallback\"} %d\n", lbl, s.FallbackRows)
		fmt.Fprintf(w, "tuplex_path_rows_total{%s,path=\"failed\"} %d\n", lbl, s.FailedRows)
	}

	gauge := func(name, help string, get func(*RunMonitor, Sample) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, m := range all {
			s, _ := m.LastSample()
			fmt.Fprintf(w, "%s{%s} %g\n", name, runLabels(m), get(m, s))
		}
	}
	gauge("tuplex_rows_per_sec", "Input throughput at the last sample.",
		func(_ *RunMonitor, s Sample) float64 { return s.RowsPerSec })
	gauge("tuplex_bytes_per_sec", "Byte throughput at the last sample.",
		func(_ *RunMonitor, s Sample) float64 { return s.BytesPerSec })
	gauge("tuplex_busy_executors", "Executors running a task at the last sample.",
		func(_ *RunMonitor, s Sample) float64 { return float64(s.BusyExecutors) })
	gauge("tuplex_executors", "Configured executor-pool size.",
		func(m *RunMonitor, _ Sample) float64 { return float64(m.executors) })
	gauge("tuplex_heap_bytes", "Heap bytes in use at the last sample.",
		func(_ *RunMonitor, s Sample) float64 { return float64(s.HeapBytes) })
	gauge("tuplex_stage", "Stage index currently executing.",
		func(m *RunMonitor, _ Sample) float64 { return float64(m.Stage()) })
	gauge("tuplex_stages", "Planned stage count.",
		func(m *RunMonitor, _ Sample) float64 { return float64(m.Stages()) })
	gauge("tuplex_run_duration_seconds", "Run wall clock so far (frozen at finish).",
		func(m *RunMonitor, _ Sample) float64 { return time.Duration(m.DurNS()).Seconds() })

	fmt.Fprintf(w, "# HELP tuplex_chunk_latency_seconds Per-task (partition/chunk) processing latency.\n")
	fmt.Fprintf(w, "# TYPE tuplex_chunk_latency_seconds histogram\n")
	for _, m := range all {
		m.ChunkLatency.WritePrometheus(w, "tuplex_chunk_latency_seconds", runLabels(m))
	}
	fmt.Fprintf(w, "# HELP tuplex_resolve_latency_seconds Per-exception-row resolve latency.\n")
	fmt.Fprintf(w, "# TYPE tuplex_resolve_latency_seconds histogram\n")
	for _, m := range all {
		m.ResolveLatency.WritePrometheus(w, "tuplex_resolve_latency_seconds", runLabels(m))
	}
}

// writeServicePrometheus renders the tuplex-serve job/cache counters.
// A process that never attached ServiceStats emits nothing here.
func writeServicePrometheus(w http.ResponseWriter, st *ServiceStats, om bool) {
	if st == nil {
		return
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c("tuplex_service_jobs_submitted_total", "Jobs accepted for execution.", st.JobsSubmitted.Load())
	c("tuplex_service_jobs_completed_total", "Jobs that finished successfully.", st.JobsCompleted.Load())
	c("tuplex_service_jobs_failed_total", "Jobs that finished with an error.", st.JobsFailed.Load())
	c("tuplex_service_jobs_rejected_total", "Submissions rejected by admission control (429/413/503).", st.JobsRejected.Load())
	c("tuplex_service_jobs_invalid_total", "Submissions rejected by the static verifier (422).", st.JobsInvalid.Load())
	c("tuplex_service_jobs_canceled_total", "Jobs canceled by the client or a deadline.", st.JobsCanceled.Load())
	c("tuplex_service_cache_hits_total", "Jobs served from the compiled-pipeline cache.", st.CacheHits.Load())
	c("tuplex_service_cache_misses_total", "Jobs that compiled a fresh pipeline.", st.CacheMisses.Load())
	c("tuplex_service_cache_evictions_total", "Compiled pipelines evicted under the cache cap.", st.CacheEvictions.Load())
	c("tuplex_service_spec_memo_hits_total", "Submissions served from a remembered request body without a decode.", st.SpecMemoHits.Load())
	g("tuplex_service_queue_depth", "Submissions waiting for an execution slot.", st.QueueDepth.Load())
	g("tuplex_service_running_jobs", "Jobs currently executing.", st.RunningJobs.Load())
	g("tuplex_service_retained_result_bytes", "Encoded result bytes held by finished jobs.", st.RetainedResultBytes.Load())
	c("tuplex_service_results_expired_total", "Finished jobs whose result was dropped under the retention byte budget.", st.ResultsExpired.Load())
	hist := func(h *Histogram, name string) {
		if om {
			h.WriteOpenMetrics(w, name, "")
		} else {
			h.WritePrometheus(w, name, "")
		}
	}
	fmt.Fprintf(w, "# HELP tuplex_service_cold_latency_seconds End-to-end latency of cache-miss jobs.\n")
	fmt.Fprintf(w, "# TYPE tuplex_service_cold_latency_seconds histogram\n")
	hist(st.ColdLatency, "tuplex_service_cold_latency_seconds")
	fmt.Fprintf(w, "# HELP tuplex_service_warm_latency_seconds End-to-end latency of cache-hit jobs.\n")
	fmt.Fprintf(w, "# TYPE tuplex_service_warm_latency_seconds histogram\n")
	hist(st.WarmLatency, "tuplex_service_warm_latency_seconds")
}
