package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// newTestServer builds an unstarted server over a private registry and
// an httptest front end (the service mux is the same one Start binds).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Registry = telemetry.NewRegistry()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// smallSpec is a tiny parallelize pipeline whose compiled form depends
// on the global k, so distinct k values are distinct cache keys.
func smallSpec(k int) string {
	return fmt.Sprintf(`{"v":1,
		"source": {"kind":"parallelize","columns":["a","b"],"rows":[[1,"x"],[2,"y"],[3,"z"]]},
		"ops": [
			{"kind":"filter","udf":{"code":"lambda x: x['a'] >= 2"}},
			{"kind":"withColumn","col":"c","udf":{"code":"lambda x: x['a'] * k","globals":{"k":%d}}}
		],
		"options": {"executors": 1}}`, k)
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func decodeStatus(t *testing.T, raw []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, raw)
	}
	return st
}

// TestConcurrentIdenticalSubmissions races N byte-identical jobs: the
// single-flight cache must compile exactly once, serve everyone the
// same answer, and count N-1 hits.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 4})
	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	results := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(10))
			codes[i] = code
			st := decodeStatus(t, raw)
			rows, _ := json.Marshal(st.Result)
			results[i] = string(rows)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("submission %d: status %d (%s)", i, code, results[i])
		}
		if results[i] != results[0] {
			t.Fatalf("submission %d diverged:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
	if got := s.stats.CacheMisses.Load(); got != 1 {
		t.Fatalf("want exactly 1 compile, got %d", got)
	}
	if got := s.stats.CacheHits.Load(); got != n-1 {
		t.Fatalf("want %d cache hits, got %d", n-1, got)
	}
	if got := s.stats.JobsCompleted.Load(); got != n {
		t.Fatalf("want %d completed, got %d", n, got)
	}
}

// TestDistinctSubmissionsCompileSeparately checks distinct specs never
// share a cache entry.
func TestDistinctSubmissionsCompileSeparately(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 2})
	for k := 1; k <= 4; k++ {
		code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(k))
		if code != http.StatusOK {
			t.Fatalf("k=%d: status %d (%s)", k, code, raw)
		}
		st := decodeStatus(t, raw)
		// c = a * k for the first surviving row (a=2).
		if got := st.Result.Rows[0][2].(float64); got != float64(2*k) {
			t.Fatalf("k=%d: want c=%d, got %v", k, 2*k, got)
		}
	}
	if got := s.stats.CacheMisses.Load(); got != 4 {
		t.Fatalf("want 4 compiles, got %d", got)
	}
	if got := s.stats.CacheHits.Load(); got != 0 {
		t.Fatalf("want 0 hits, got %d", got)
	}
}

// TestCacheEvictionUnderCap fills the cache past its cap and checks
// LRU eviction plus recompilation of the evicted key.
func TestCacheEvictionUnderCap(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, CacheEntries: 2})
	for k := 1; k <= 4; k++ {
		if code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(k)); code != http.StatusOK {
			t.Fatalf("k=%d: status %d (%s)", k, code, raw)
		}
	}
	if got := s.stats.CacheEvictions.Load(); got != 2 {
		t.Fatalf("want 2 evictions, got %d", got)
	}
	if got := s.cache.len(); got != 2 {
		t.Fatalf("want 2 cached plans, got %d", got)
	}
	// k=1 was evicted: resubmission recompiles rather than serving a
	// stale or missing entry.
	code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(1))
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d (%s)", code, raw)
	}
	if st := decodeStatus(t, raw); st.CacheHit {
		t.Fatalf("evicted entry must not report a cache hit")
	}
	if got := s.stats.CacheMisses.Load(); got != 5 {
		t.Fatalf("want 5 compiles after eviction, got %d", got)
	}
	// k=4 stayed cached.
	if _, raw := post(t, hs.URL+"/v1/jobs", smallSpec(4)); !decodeStatus(t, raw).CacheHit {
		t.Fatalf("recently-used entry should hit")
	}
}

// TestSchemaDriftNeverServesStalePlan is the correctness core of the
// cache: when the input file's content drifts (here int columns become
// floats), the fingerprint must miss and the job must recompile — the
// response is differentially compared against a from-scratch execution
// of the same spec.
func TestSchemaDriftNeverServesStalePlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobSpec := fmt.Sprintf(`{"v":1,
		"source": {"kind":"csv","path":%q},
		"ops": [{"kind":"withColumn","col":"s","udf":{"code":"lambda x: x['a'] + x['b']"}}],
		"options": {"executors": 1}}`, path)

	_, hs := newTestServer(t, Config{MaxConcurrent: 2})
	code, raw := post(t, hs.URL+"/v1/jobs", jobSpec)
	if code != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", code, raw)
	}
	if st := decodeStatus(t, raw); st.CacheHit {
		t.Fatalf("first run cannot be a hit")
	}
	_, raw = post(t, hs.URL+"/v1/jobs", jobSpec)
	warm := decodeStatus(t, raw)
	if !warm.CacheHit {
		t.Fatalf("unchanged resubmission must hit")
	}

	// Drift the input schema: same columns, float cells.
	if err := os.WriteFile(path, []byte("a,b\n1.5,2.25\n3.5,4.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, raw = post(t, hs.URL+"/v1/jobs", jobSpec)
	if code != http.StatusOK {
		t.Fatalf("drifted: status %d (%s)", code, raw)
	}
	drifted := decodeStatus(t, raw)
	if drifted.CacheHit {
		t.Fatalf("schema drift served a stale plan")
	}

	// Differential check against a fresh, cache-free compile.
	p, err := spec.Decode([]byte(jobSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.ExecuteContext(context.Background(), b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(spec.ResultRows(fresh, -1))
	gotJSON, _ := json.Marshal(drifted.Result.Rows)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("drifted result diverged from fresh compile:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestCacheHitRereadsJoinBuildSide: the fingerprint covers each file's
// size and first 64 KiB, so rewriting the tail of a larger build-side
// file at the same size is still a cache hit — and the hit must join
// against what the file holds now, not against the table the compiling
// job built.
func TestCacheHitRereadsJoinBuildSide(t *testing.T) {
	var build bytes.Buffer
	build.WriteString("id,name\n")
	const n = 6000 // 13-byte rows: ~76 KiB, past the fingerprinted prefix
	for i := 0; i < n; i++ {
		fmt.Fprintf(&build, "%d,n%d\n", 10000+i, 10000+i)
	}
	path := filepath.Join(t.TempDir(), "build.csv")
	if err := os.WriteFile(path, build.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	last := 10000 + n - 1
	jobSpec := fmt.Sprintf(`{"v":1,
		"source": {"kind":"csv","data":"id,v\n10000,1\n%d,2\n"},
		"ops": [{"kind":"join","left_key":"id","right_key":"id",
			"build":{"source":{"kind":"csv","path":%q}}}],
		"options": {"executors": 1}}`, last, path)

	_, hs := newTestServer(t, Config{MaxConcurrent: 2})
	submit := func(wantHit bool, wantName string) {
		t.Helper()
		code, raw := post(t, hs.URL+"/v1/jobs", jobSpec)
		if code != http.StatusOK {
			t.Fatalf("status %d (%s)", code, raw)
		}
		st := decodeStatus(t, raw)
		if st.CacheHit != wantHit {
			t.Fatalf("cache_hit = %v, want %v", st.CacheHit, wantHit)
		}
		want := fmt.Sprintf(`[[10000,1,"n10000"],[%d,2,%q]]`, last, wantName)
		if got, _ := json.Marshal(st.Result.Rows); string(got) != want {
			t.Fatalf("cache_hit=%v rows = %s, want %s", st.CacheHit, got, want)
		}
	}
	submit(false, fmt.Sprintf("n%d", last))

	data := build.Bytes()
	copy(data[len(data)-len("n15999\n"):], "FRESH!\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	submit(true, "FRESH!")
}

// TestCacheHitRejudgesJoinKeyUniqueness: whether a build side's keys are
// unique is a fact of the run that hashed it, not of the cached plan. A
// same-size rewrite of the build file's tail (a cache hit) that makes one
// key appear twice must fan the probe row out; the reverse rewrite must
// bring back one row per probe row. The join-build span says which path
// each run took.
func TestCacheHitRejudgesJoinKeyUniqueness(t *testing.T) {
	var build bytes.Buffer
	build.WriteString("id,name\n")
	const n = 6000 // ~76 KiB, past the fingerprinted prefix
	for i := 0; i < n; i++ {
		fmt.Fprintf(&build, "%d,n%d\n", 10000+i, 10000+i)
	}
	unique := build.Bytes()
	// The last row's key becomes its predecessor's, at the same size.
	dup := bytes.Clone(unique)
	copy(dup[len(dup)-len("15999,n15999\n"):], "15998,")
	path := filepath.Join(t.TempDir(), "build.csv")
	jobSpec := fmt.Sprintf(`{"v":1,
		"source": {"kind":"csv","data":"id,v\n10000,1\n15998,2\n"},
		"ops": [{"kind":"join","left_key":"id","right_key":"id",
			"build":{"source":{"kind":"csv","path":%q}}}],
		"options": {"executors": 1}}`, path)
	rowsFor := map[bool]string{
		true:  `[[10000,1,"n10000"],[15998,2,"n15998"]]`,
		false: `[[10000,1,"n10000"],[15998,2,"n15998"],[15998,2,"n15999"]]`,
	}

	_, hs := newTestServer(t, Config{MaxConcurrent: 2})
	for _, order := range [][]bool{{true, false}, {false, true}} {
		for i, uniq := range order {
			file := unique
			if !uniq {
				file = dup
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			code, raw := post(t, hs.URL+"/v1/jobs", jobSpec)
			if code != http.StatusOK {
				t.Fatalf("status %d (%s)", code, raw)
			}
			st := decodeStatus(t, raw)
			if wantHit := i > 0 || !order[0]; st.CacheHit != wantHit {
				t.Fatalf("unique=%v: cache_hit = %v, want %v", uniq, st.CacheHit, wantHit)
			}
			if got, _ := json.Marshal(st.Result.Rows); string(got) != rowsFor[uniq] {
				t.Fatalf("unique=%v cache_hit=%v: rows = %s, want %s", uniq, st.CacheHit, got, rowsFor[uniq])
			}
			if got := joinBuildUnique(t, hs.URL, st.ID); got != fmt.Sprint(uniq) {
				t.Fatalf("unique=%v: join-build span says unique_keys=%q", uniq, got)
			}
		}
	}
}

// joinBuildUnique returns the unique_keys attribute of the job trace's
// join-build span.
func joinBuildUnique(t *testing.T, base, id string) string {
	t.Helper()
	_, raw := fetchTrace(t, base, id, "")
	var tr trace.Trace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	var walk func(s *trace.Span) string
	walk = func(s *trace.Span) string {
		for _, a := range s.Attrs {
			if s.Name == "join-build" && a.Key == "unique_keys" {
				return a.Val
			}
		}
		for _, c := range s.Children {
			if v := walk(c); v != "" {
				return v
			}
		}
		return ""
	}
	return walk(tr.Root)
}

// TestFailedRunsAreNotCached checks a failing flight doesn't poison
// its key: every resubmission retries the compile.
func TestFailedRunsAreNotCached(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	bad := `{"v":1,"source":{"kind":"csv","path":"/nonexistent/input.csv"},
		"ops":[{"kind":"map","udf":{"code":"lambda x: x"}}]}`
	for i := 0; i < 2; i++ {
		code, raw := post(t, hs.URL+"/v1/jobs", bad)
		if code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: want 500, got %d (%s)", i, code, raw)
		}
		if st := decodeStatus(t, raw); st.State != StateFailed || st.Error == "" {
			t.Fatalf("attempt %d: want failed state with error, got %+v", i, st)
		}
	}
	if got := s.stats.CacheMisses.Load(); got != 2 {
		t.Fatalf("failed flights must retry: want 2 compiles, got %d", got)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("failed plan cached: %d entries", got)
	}
	if got := s.stats.JobsFailed.Load(); got != 2 {
		t.Fatalf("want 2 failed jobs, got %d", got)
	}
}

// TestAdmissionRejects429 fills the only execution slot and checks
// overload answers 429 (with queueing disabled) instead of piling up.
func TestAdmissionRejects429(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	s.sem <- struct{}{} // occupy the slot
	code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("want 429 at capacity, got %d (%s)", code, raw)
	}
	if got := s.stats.JobsRejected.Load(); got != 1 {
		t.Fatalf("want 1 rejection, got %d", got)
	}
	<-s.sem
	if code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(1)); code != http.StatusOK {
		t.Fatalf("freed slot: want 200, got %d (%s)", code, raw)
	}
}

// TestQueueBoundsWaiters checks the queue admits up to its depth and
// rejects beyond it, and that a queued job runs once a slot frees.
func TestQueueBoundsWaiters(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	s.sem <- struct{}{}
	done := make(chan int, 1)
	go func() {
		code, _ := post(t, hs.URL+"/v1/jobs", smallSpec(2))
		done <- code
	}()
	// Wait for the submission to reach the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.QueueDepth.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("submission never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(3)); code != http.StatusTooManyRequests {
		t.Fatalf("queue full: want 429, got %d (%s)", code, raw)
	}
	<-s.sem // free the slot; the queued job proceeds
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued job: want 200, got %d", code)
	}
}

// TestAsyncLifecycle submits with ?wait=false and drives the job
// through GET polling, listing and DELETE semantics.
func TestAsyncLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 2})
	code, raw := post(t, hs.URL+"/v1/jobs?wait=false", smallSpec(7))
	if code != http.StatusAccepted {
		t.Fatalf("want 202, got %d (%s)", code, raw)
	}
	st := decodeStatus(t, raw)
	if st.ID == "" {
		t.Fatalf("async submission returned no job id: %s", raw)
	}

	var final JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		final = decodeStatus(t, buf.Bytes())
		if final.State == StateDone || final.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("want done with result, got %+v", final)
	}
	if len(final.Result.Rows) != 2 {
		t.Fatalf("want 2 rows, got %v", final.Result.Rows)
	}

	// Listing includes the job, without its row payload.
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, j := range listing.Jobs {
		if j.ID == st.ID {
			found = true
			if j.Result != nil {
				t.Fatalf("listing must not inline results")
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from listing", st.ID)
	}

	// DELETE on a finished job reports its (unchanged) terminal state.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(dresp.Body)
	dresp.Body.Close()
	if got := decodeStatus(t, buf.Bytes()); got.State != StateDone {
		t.Fatalf("DELETE after finish: want done, got %q", got.State)
	}

	// Unknown ids are 404 on both verbs.
	if resp, _ := http.Get(hs.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown: want 404, got %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/nope", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: want 404, got %d", resp.StatusCode)
	}
}

// TestCanceledJobReportsCanceled drives runJob with an already-canceled
// context (white box: deterministic, no timing) and checks the distinct
// canceled state and counter.
func TestCanceledJobReportsCanceled(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	p, err := spec.Decode([]byte(smallSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	jb := s.jobs.create(fp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.inflight.Add(1)
	s.sem <- struct{}{}
	s.runJob(ctx, jb, &decodedBody{pipeline: p}, nil)
	if st := jb.status(); st.State != StateCanceled {
		t.Fatalf("want canceled, got %q (err=%q)", st.State, st.Error)
	}
	if got := s.stats.JobsCanceled.Load(); got != 1 {
		t.Fatalf("want 1 canceled, got %d", got)
	}
	// The canceled flight must not poison the cache.
	if got := s.cache.len(); got != 0 {
		t.Fatalf("canceled compile cached: %d entries", got)
	}
}

// TestDrain checks the SIGTERM path: draining rejects new work with
// 503 and waits for in-flight jobs.
func TestDrain(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 2, DrainTimeout: 5 * time.Second})
	if code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(1)); code != http.StatusOK {
		t.Fatalf("pre-drain job: %d (%s)", code, raw)
	}

	s.inflight.Add(1) // a job still running
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a job in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New submissions are refused while draining.
	if code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(2)); code != http.StatusServiceUnavailable {
		t.Fatalf("draining: want 503, got %d (%s)", code, raw)
	}
	s.inflight.Done()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestIntrospectionExposesService checks /metrics and /runz carry the
// service counters next to the per-run rows.
func TestIntrospectionExposesService(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1})
	post(t, hs.URL+"/v1/jobs", smallSpec(5))
	post(t, hs.URL+"/v1/jobs", smallSpec(5))

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"tuplex_service_jobs_submitted_total 2",
		"tuplex_service_cache_hits_total 1",
		"tuplex_service_cache_misses_total 1",
		"tuplex_service_cold_latency_seconds_count 1",
		"tuplex_service_warm_latency_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, err = http.Get(hs.URL + "/debug/tuplex/runz")
	if err != nil {
		t.Fatal(err)
	}
	var runz struct {
		Service *telemetry.ServiceReport `json:"service"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if runz.Service == nil || runz.Service.JobsSubmitted != 2 || runz.Service.CacheHits != 1 {
		t.Fatalf("runz service section wrong: %+v", runz.Service)
	}
}

// TestSubmissionValidation covers the request-shaped rejections: bad
// JSON, wrong version, oversized bodies and the per-job memory budget.
func TestSubmissionValidation(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxBodyBytes: 512, MemoryBudget: 10})
	if code, _ := post(t, hs.URL+"/v1/jobs", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad json: want 400, got %d", code)
	}
	// Version mismatches are accumulated decode problems now: 422 with
	// a TPX000 diagnostic instead of a bare 400.
	if code, raw := post(t, hs.URL+"/v1/jobs", `{"v":9,"source":{"kind":"csv","path":"x"}}`); code != http.StatusUnprocessableEntity ||
		!strings.Contains(string(raw), `"TPX000"`) {
		t.Fatalf("bad version: want 422 with TPX000, got %d (%s)", code, raw)
	}
	big := `{"v":1,"source":{"kind":"csv","data":"` + strings.Repeat("a", 600) + `"}}`
	if code, _ := post(t, hs.URL+"/v1/jobs", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: want 413, got %d", code)
	}
	over := `{"v":1,"source":{"kind":"csv","data":"a,b\n1,2\n3,4\n5,6\n"}}`
	if code, raw := post(t, hs.URL+"/v1/jobs", over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("memory budget: want 413, got %d (%s)", code, raw)
	}
	if got := s.stats.JobsRejected.Load(); got != 2 {
		t.Fatalf("want 2 rejections (413s), got %d", got)
	}
}

// TestTakeAndAggregateSinks round-trips the remaining sink kinds
// through the service.
func TestTakeAndAggregateSinks(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1})
	takeSpec := `{"v":1,
		"source":{"kind":"parallelize","columns":["a"],"rows":[[1],[2],[3],[4]]},
		"sink":{"kind":"take","n":2},"options":{"executors":1}}`
	_, raw := post(t, hs.URL+"/v1/jobs", takeSpec)
	st := decodeStatus(t, raw)
	// A take cap is requested semantics, not server-side truncation.
	if len(st.Result.Rows) != 2 || st.Result.Truncated {
		t.Fatalf("take sink: want 2 rows untruncated, got %+v", st.Result)
	}

	aggSpec := `{"v":1,
		"source":{"kind":"parallelize","columns":["a"],"rows":[[1],[2],[3],[4]]},
		"sink":{"kind":"aggregate",
			"agg":{"code":"lambda acc, row: acc + row"},
			"comb":{"code":"lambda a, b: a + b"},
			"initial":0},
		"options":{"executors":1}}`
	_, raw = post(t, hs.URL+"/v1/jobs", aggSpec)
	st = decodeStatus(t, raw)
	if !reflect.DeepEqual(st.Result.Value, float64(10)) {
		t.Fatalf("aggregate sink: want 10, got %v (%T)", st.Result.Value, st.Result.Value)
	}
}

// TestTruncatedResultRetainsOnlyLimit: a job whose reply inlines limit
// of its rows must box and keep only those: its retained JobResult holds
// limit rows' cells (and their string bytes), not slabs or buffers
// shared with the rows past the cap.
func TestTruncatedResultRetainsOnlyLimit(t *testing.T) {
	const n, limit = 60_000, 200
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := range n {
		fmt.Fprintf(&sb, "%d,%d.25,name-%06d%s\n", 1000+i, i, i, strings.Repeat("x", 53))
	}
	data, _ := json.Marshal(sb.String())
	p, err := spec.Decode([]byte(`{"v":1,"source":{"kind":"csv","data":` + string(data) + `},
		"ops":[{"kind":"withColumn","col":"d","udf":{"code":"lambda x: x['a'] * 2"}}],
		"options":{"executors":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	retained := func(maxRows int) (int64, *JobResult) {
		s := &Server{cfg: Config{MaxResultRows: maxRows}}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		jr := func() *JobResult {
			b, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			s.tuneOpts(b, &job{id: "retain"})
			// A finished run's monitor stays in the process's recent-runs
			// ring; it is not part of the result.
			b.Opts.Telemetry.Enabled = false
			res, err := core.ExecuteContext(context.Background(), b.Node, b.Kind, b.CSVPath, b.Opts)
			if err != nil {
				t.Fatal(err)
			}
			return shapeResult(b, res, maxRows)
		}()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc) - int64(before), jr
	}
	got, jr := retained(limit)
	if len(jr.Rows) != limit || !jr.Truncated || jr.OutputRows != n {
		t.Fatalf("rows %d truncated %v output %d; want %d, true, %d", len(jr.Rows), jr.Truncated, jr.OutputRows, limit, n)
	}
	if last := jr.Rows[limit-1]; last[2] != fmt.Sprintf("name-%06d%s", limit-1, strings.Repeat("x", 53)) || last[3] != int64(2*(1000+limit-1)) {
		t.Fatalf("row %d = %v", limit-1, last)
	}
	// A row's cells: four interface words, a row header, slab cells for
	// the ints, the float and the string header, and the string's 64
	// bytes — about 200 bytes. Allow 320 per row plus collector noise: the
	// 4096 rows of string bytes in the vectors the cut falls in would
	// exceed it.
	if ceiling := int64(limit*320 + 64<<10); got > ceiling {
		t.Fatalf("truncated result retains %d bytes, ceiling %d", got, ceiling)
	}
	full, jrFull := retained(n)
	if len(jrFull.Rows) != n || full < 50*got {
		t.Fatalf("untruncated result retains %d bytes for %d rows, truncated %d: the measurement cannot tell them apart", full, len(jrFull.Rows), got)
	}
	runtime.KeepAlive(jr)
	runtime.KeepAlive(jrFull)
}
