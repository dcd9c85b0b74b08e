package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gotuplex/tuplex/internal/metrics"
)

// promLine matches one Prometheus text-exposition sample line:
// name{labels} value. Labels are optional; the value must parse as a
// float.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// checkPrometheusText validates the body line by line against the text
// exposition format and returns the metric names seen.
func checkPrometheusText(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		mm := promLine.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("line %d is not valid exposition format: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(mm[3], 64); err != nil {
			t.Fatalf("line %d has non-numeric value %q: %v", i+1, mm[3], err)
		}
		names[mm[1]] = true
	}
	return names
}

// liveMonitor registers a sampling monitor over seeded counters and
// returns it with its registry (caller stops it).
func liveMonitor(t *testing.T, label string) (*Registry, *RunMonitor, *metrics.Metrics) {
	t.Helper()
	reg := NewRegistry()
	mm := &metrics.Metrics{}
	m := NewRunMonitor(Config{Interval: time.Millisecond, Label: label}, mm, 4)
	reg.Register(m)
	m.SetStages(2)
	m.SetStage(1)
	mm.Counters.InputRows.Store(5000)
	mm.Counters.OutputRows.Store(4900)
	mm.Counters.NormalRows.Store(4900)
	mm.Counters.GeneralResolved.Store(80)
	mm.Counters.FailedRows.Store(20)
	mm.Ingest.BytesRead.Store(123_456)
	m.TaskDone(2 * time.Millisecond) // one chunk latency observation
	m.RecordResolve(50 * time.Microsecond)
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s, ok := m.LastSample(); ok && s.InputRows == 5000 {
			return reg, m, mm
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never observed seeded counters")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	reg, m, _ := liveMonitor(t, `zi"llow\run`) // label needs escaping
	defer m.Stop()
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	names := checkPrometheusText(t, body)
	for _, want := range []string{
		"tuplex_runs_live", "tuplex_input_rows_total", "tuplex_output_rows_total",
		"tuplex_bytes_read_total", "tuplex_path_rows_total", "tuplex_rows_per_sec",
		"tuplex_busy_executors", "tuplex_executors", "tuplex_heap_bytes",
		"tuplex_stage", "tuplex_run_duration_seconds",
		"tuplex_chunk_latency_seconds_bucket", "tuplex_chunk_latency_seconds_count",
		"tuplex_resolve_latency_seconds_sum",
	} {
		if !names[want] {
			t.Fatalf("missing metric %s in:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "tuplex_input_rows_total") || !strings.Contains(body, "} 5000\n") {
		t.Fatalf("input rows not exported:\n%s", body)
	}
	if !strings.Contains(body, `path="normal"`) || !strings.Contains(body, `path="failed"`) {
		t.Fatalf("per-path counters missing:\n%s", body)
	}
	if !strings.Contains(body, `label="zi\"llow\\run"`) {
		t.Fatalf("label not escaped:\n%s", body)
	}
	// Histogram must end with the mandatory +Inf bucket matching _count.
	if !strings.Contains(body, `le="+Inf"`) {
		t.Fatalf("histogram missing +Inf bucket:\n%s", body)
	}
}

func TestRunzReportsMidFlightProgress(t *testing.T) {
	reg, m, _ := liveMonitor(t, "stream")
	defer m.Stop()
	m.AddTotalBytes(1 << 20)
	m.StoreStreamBytes(4096)
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/tuplex/runz?samples=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rep RunzReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Live) != 1 {
		t.Fatalf("live runs = %d, want the mid-flight run", len(rep.Live))
	}
	r := rep.Live[0]
	if !r.Live || r.Label != "stream" {
		t.Fatalf("run = %+v", r)
	}
	if r.Stage != 1 || r.Stages != 2 {
		t.Fatalf("stage progress = %d/%d, want 1/2", r.Stage, r.Stages)
	}
	if r.InputRows != 5000 || r.NormalRows != 4900 || r.GeneralRows != 80 || r.FailedRows != 20 {
		t.Fatalf("counters = %+v", r)
	}
	if r.TotalBytes != 1<<20 {
		t.Fatalf("TotalBytes = %d", r.TotalBytes)
	}
	if r.DurNS <= 0 {
		t.Fatalf("DurNS = %d, want positive for a live run", r.DurNS)
	}
	if r.ChunkP50NS <= 0 || r.ResolveP50NS <= 0 {
		t.Fatalf("latency percentiles = chunk %d / resolve %d, want positive", r.ChunkP50NS, r.ResolveP50NS)
	}
	if len(r.Samples) == 0 || len(r.Samples) > 8 {
		t.Fatalf("samples = %d, want 1..8 (per ?samples=8)", len(r.Samples))
	}

	// After the run finishes it must move to the recent list.
	m.Stop()
	reg.Unregister(m)
	resp2, err := http.Get(srv.URL + "/debug/tuplex/runz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep2 RunzReport
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Live) != 0 || len(rep2.Recent) != 1 {
		t.Fatalf("after finish: live=%d recent=%d, want 0/1", len(rep2.Live), len(rep2.Recent))
	}
	if rep2.Recent[0].Live || rep2.Recent[0].Samples != nil {
		t.Fatalf("recent run = %+v, want live=false and no samples without ?samples", rep2.Recent[0])
	}
}

func TestMetricsEndpointEmptyRegistry(t *testing.T) {
	srv := httptest.NewServer(NewMux(NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	names := checkPrometheusText(t, string(b))
	if !names["tuplex_runs_live"] || !names["tuplex_runs_recent"] {
		t.Fatalf("empty registry must still export run-count gauges:\n%s", b)
	}
}

func TestServeLifecycleAndAutoEnable(t *testing.T) {
	if AutoEnabled() {
		t.Fatal("autoEnable dirty at test start")
	}
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !AutoEnabled() {
		t.Fatal("Serve must auto-enable monitoring")
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if AutoEnabled() {
		t.Fatal("Close must release auto-enable")
	}
}

// TestServiceRetentionMetrics pins the finished-result retention gauge
// and the expiry counter on both surfaces: /metrics (gauge and counter
// types) and the runz service section.
func TestServiceRetentionMetrics(t *testing.T) {
	reg := NewRegistry()
	st := NewServiceStats()
	st.RetainedResultBytes.Store(16 << 20)
	st.ResultsExpired.Add(3)
	reg.SetService(st)
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := get("/metrics")
	checkPrometheusText(t, body)
	for _, want := range []string{
		"# TYPE tuplex_service_retained_result_bytes gauge\ntuplex_service_retained_result_bytes 16777216\n",
		"# TYPE tuplex_service_results_expired_total counter\ntuplex_service_results_expired_total 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}

	var rep RunzReport
	if err := json.Unmarshal([]byte(get("/debug/tuplex/runz")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Service == nil || rep.Service.RetainedResultBytes != 16<<20 || rep.Service.ResultsExpired != 3 {
		t.Fatalf("runz service section = %+v, want retained 16 MiB and 3 expired", rep.Service)
	}
}
