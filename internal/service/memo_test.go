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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// rememberedBodies reports the request bodies the memo holds.
func (c *planCache) rememberedBodies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// replyShape is what a submission's reply must repeat when the same
// body is sent again: the status code and the document without the
// members that name or time one job (id, trace id, submission time,
// duration, cache outcome, the flight-recorder tail).
func replyShape(t testing.TB, code int, raw []byte) string {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("reply is not a JSON object: %v\n%s", err, raw)
	}
	for _, k := range []string{"id", "trace_id", "submitted_at", "duration_ns", "cache_hit", "events"} {
		delete(doc, k)
	}
	b, err := json.Marshal(doc) // map keys sort
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", code, b)
}

// TestMemoServesConcurrentIdenticalSubmissions: after one cold run,
// concurrent byte-identical resubmissions all come from the memo, share
// one remembered pipeline, and answer exactly as the cold run did.
func TestMemoServesConcurrentIdenticalSubmissions(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 4})
	body := coldSpec(3)
	code, raw := post(t, hs.URL+"/v1/jobs", body)
	if code != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", code, raw)
	}
	want := replyShape(t, code, raw)
	if n := s.stats.SpecMemoHits.Load(); n != 0 {
		t.Fatalf("a cold submission counted %d memo hits", n)
	}
	const n = 16
	var wg sync.WaitGroup
	got := make([]string, n)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw := post(t, hs.URL+"/v1/jobs", body)
			got[i] = replyShape(t, code, raw)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("submission %d diverged from the cold reply:\n%s\nvs\n%s", i, g, want)
		}
	}
	if h := s.stats.SpecMemoHits.Load(); h != n {
		t.Fatalf("want %d memo hits, got %d", n, h)
	}
	if h := s.stats.CacheHits.Load(); h != n {
		t.Fatalf("want %d cache hits, got %d", n, h)
	}
	if b := s.cache.rememberedBodies(); b != 1 {
		t.Fatalf("want 1 remembered body, got %d", b)
	}
}

// TestMemoRefingerprintsChangedInput: a remembered body still re-reads
// its input's size and prefix, so after the file changes the same bytes
// get a new fingerprint, compile again and return the file's new rows.
func TestMemoRefingerprintsChangedInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"v":1,
		"source": {"kind":"csv","path":%q},
		"ops": [{"kind":"withColumn","col":"s","udf":{"code":"lambda x: x['a'] + x['b']"}}],
		"options": {"executors": 1}}`, path)
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	submit := func() JobStatus {
		t.Helper()
		code, raw := post(t, hs.URL+"/v1/jobs", body)
		if code != http.StatusOK {
			t.Fatalf("status %d (%s)", code, raw)
		}
		return decodeStatus(t, raw)
	}
	cold := submit()
	warm := submit()
	if !warm.CacheHit || warm.Fingerprint != cold.Fingerprint || s.stats.SpecMemoHits.Load() != 1 {
		t.Fatalf("unchanged resubmission: hit=%v fingerprint %s vs %s, memo hits %d",
			warm.CacheHit, warm.Fingerprint, cold.Fingerprint, s.stats.SpecMemoHits.Load())
	}

	if err := os.WriteFile(path, []byte("a,b\n10,20\n30,40\n50,60\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	changed := submit()
	if changed.CacheHit || changed.Fingerprint == cold.Fingerprint {
		t.Fatalf("changed input served the old plan: hit=%v fingerprint %s", changed.CacheHit, changed.Fingerprint)
	}
	if n := s.stats.SpecMemoHits.Load(); n != 1 {
		t.Fatalf("a remembered body over a changed input counted as a memo hit (%d)", n)
	}
	p, err := spec.Decode([]byte(body))
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
	gotJSON, _ := json.Marshal(changed.Result.Rows)
	if !bytes.Equal(wantJSON, gotJSON) || len(changed.Result.Rows) != 3 {
		t.Fatalf("changed input: got rows %s, want %s", gotJSON, wantJSON)
	}
	// The body now resolves to the new entry: the next resubmission is a
	// memo hit on the new fingerprint.
	again := submit()
	if !again.CacheHit || again.Fingerprint != changed.Fingerprint || s.stats.SpecMemoHits.Load() != 2 {
		t.Fatalf("resubmission after the change: hit=%v fingerprint %s, memo hits %d",
			again.CacheHit, again.Fingerprint, s.stats.SpecMemoHits.Load())
	}
	if n := s.cache.rememberedBodies(); n != 1 {
		t.Fatalf("one body is remembered under %d entries", n)
	}
}

// TestMemoNeverRemembersInvalidBodies: a body the decoder or the
// verifier rejects gets the same diagnostics every time and never
// enters the memo.
func TestMemoNeverRemembersInvalidBodies(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	for _, body := range []string{invalidSpec, unknownFieldSpec, "{not json"} {
		code, raw := post(t, hs.URL+"/v1/jobs", body)
		first := replyShape(t, code, raw)
		if code != http.StatusUnprocessableEntity && code != http.StatusBadRequest {
			t.Fatalf("invalid body answered %d (%s)", code, raw)
		}
		for i := 0; i < 3; i++ {
			code, raw := post(t, hs.URL+"/v1/jobs", body)
			if got := replyShape(t, code, raw); got != first {
				t.Fatalf("resubmission %d of an invalid body answered differently:\n%s\nvs\n%s", i, got, first)
			}
		}
	}
	if n := s.cache.rememberedBodies(); n != 0 {
		t.Fatalf("invalid bodies entered the memo: %d", n)
	}
	if n := s.stats.SpecMemoHits.Load(); n != 0 {
		t.Fatalf("invalid bodies counted %d memo hits", n)
	}
}

// respaced spells smallSpec(k) differently: members reordered and the
// whitespace changed. It decodes to the same pipeline.
func respaced(k, variant int) string {
	return fmt.Sprintf(`{"options":{"executors":1},%s"ops":[
		{"udf":{"code":"lambda x: x['a'] >= 2"},"kind":"filter"},
		{"udf":{"globals":{"k":%d},"code":"lambda x: x['a'] * k"},"col":"c","kind":"withColumn"}],
		"source":{"rows":[[1,"x"],[2,"y"],[3,"z"]],"columns":["a","b"],"kind":"parallelize"},"v":1}`,
		strings.Repeat(" ", variant), k)
}

// TestMemoRespacedVariantHitsPlanCache: a reordered or re-spaced body is
// a different body but the same pipeline, so it misses the memo, hits
// the plan cache under the same fingerprint, and is remembered too.
func TestMemoRespacedVariantHitsPlanCache(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	code, raw := post(t, hs.URL+"/v1/jobs", smallSpec(4))
	if code != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", code, raw)
	}
	cold := decodeStatus(t, raw)
	for round := 0; round < 2; round++ {
		code, raw := post(t, hs.URL+"/v1/jobs", respaced(4, 1))
		if code != http.StatusOK {
			t.Fatalf("variant: status %d (%s)", code, raw)
		}
		st := decodeStatus(t, raw)
		if !st.CacheHit || st.Fingerprint != cold.Fingerprint {
			t.Fatalf("round %d: variant hit=%v fingerprint %s, want a hit on %s", round, st.CacheHit, st.Fingerprint, cold.Fingerprint)
		}
		if got, want := replyShape(t, code, raw), replyShape(t, http.StatusOK, mustMarshal(t, cold)); got != want {
			t.Fatalf("variant reply differs from the original's:\n%s\nvs\n%s", got, want)
		}
		if n := s.stats.SpecMemoHits.Load(); n != int64(round) {
			t.Fatalf("round %d: %d memo hits, want %d", round, n, round)
		}
	}
	if n := s.cache.rememberedBodies(); n != 2 {
		t.Fatalf("want both spellings remembered, got %d", n)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMemoBoundedByCache: the memo holds at most maxEntryBodies bodies
// per cached plan, and evicted plans take their bodies with them, so
// with more distinct plans than the cache holds the count stays at or
// below cap × maxEntryBodies.
func TestMemoBoundedByCache(t *testing.T) {
	const capEntries = 2
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, CacheEntries: capEntries})
	for k := 1; k <= 6; k++ {
		for v := 0; v < maxEntryBodies+2; v++ {
			for rep := 0; rep < 2; rep++ {
				if code, raw := post(t, hs.URL+"/v1/jobs", respaced(k, v)); code != http.StatusOK {
					t.Fatalf("k=%d variant %d: status %d (%s)", k, v, code, raw)
				}
			}
			if n := s.cache.rememberedBodies(); n > capEntries*maxEntryBodies {
				t.Fatalf("k=%d variant %d: %d remembered bodies, bound %d", k, v, n, capEntries*maxEntryBodies)
			}
		}
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	held := 0
	for _, e := range s.cache.entries {
		if len(e.bodies) > maxEntryBodies {
			t.Fatalf("entry holds %d bodies, bound %d", len(e.bodies), maxEntryBodies)
		}
		held += len(e.bodies)
		for _, b := range e.bodies {
			if s.cache.bodies[b.sum] != e {
				t.Fatal("a remembered body is missing from the index")
			}
		}
	}
	if held != len(s.cache.bodies) || held != capEntries*maxEntryBodies {
		t.Fatalf("entries hold %d bodies, the index %d; want %d", held, len(s.cache.bodies), capEntries*maxEntryBodies)
	}
}

// TestPlanFingerprintMatchesReply: the client's Fingerprint, computed
// from the plan's cached wire bytes, equals the key the daemon reports,
// cold and from the memo, for an inline and a file-backed plan.
func TestPlanFingerprintMatchesReply(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	cl := tuplex.NewClient(hs.URL)
	inline, err := tuplex.NewContext(tuplex.WithExecutors(1)).
		Parallelize([][]any{{int64(1)}, {int64(2)}}, []string{"a"}).
		Map(tuplex.UDF("lambda a: a + k").WithGlobal("k", int64(3))).Plan()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := tuplex.NewContext(tuplex.WithExecutors(1)).CSV(path).
		WithColumn("s", tuplex.UDF("lambda x: x['a'] * x['b']")).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*tuplex.Plan{inline, file} {
		want, err := pl.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			job, err := cl.Submit(context.Background(), pl)
			if err != nil {
				t.Fatal(err)
			}
			if job.Fingerprint != want || job.CacheHit != (round == 1) {
				t.Fatalf("round %d: reply fingerprint %s hit=%v, plan's %s", round, job.Fingerprint, job.CacheHit, want)
			}
		}
	}
	if n := s.stats.SpecMemoHits.Load(); n != 2 {
		t.Fatalf("the client's repeated bytes made %d memo hits, want 2", n)
	}
}

// TestBuildLeavesPipelineUnchanged pins the read-only contract a
// remembered pipeline relies on: building, verifying, compiling and
// running it leave its encoding as it was.
func TestBuildLeavesPipelineUnchanged(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	join := `{"v":1,"source":{"kind":"csv","data":"id,v\n1,a\n2,b\n"},"ops":[
		{"kind":"join","build":{"source":{"kind":"csv","data":"id,name\n1,x\n"}},"left_key":"id","right_key":"id"},
		{"kind":"unique"}],"sink":{"kind":"take","n":5}}`
	bodies := []string{smallSpec(2), coldSpec(2), join}
	for _, f := range []string{"aggregate.json", "complex.json", "text.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "spec", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(raw))
	}
	for i, body := range bodies {
		p, err := spec.Decode([]byte(body))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		before, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		built, diags := s.buildChecked(p, time.Now(), &frontTimes{})
		if built == nil {
			t.Fatalf("body %d did not build: %v", i, diags)
		}
		if _, err := p.Build(); err != nil {
			t.Fatal(err)
		}
		if res, _, err := core.CompileAndExecute(context.Background(), built.Node, built.Kind, built.CSVPath, built.Opts); err == nil {
			spec.ResultRows(res, -1)
		}
		after, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("body %d: building changed the pipeline:\nbefore %s\nafter  %s", i, before, after)
		}
	}
}

// TestJobTraceDecodeSpans: every job trace carries decode and
// fingerprint spans before admission; decode says whether the body came
// from the memo, and /metrics counts the memo hits.
func TestJobTraceDecodeSpans(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1})
	cold := submitTraced(t, hs.URL, smallSpec(8), "")
	warm := submitTraced(t, hs.URL, smallSpec(8), "")
	for _, tc := range []struct {
		st   JobStatus
		memo string
	}{{cold, "miss"}, {warm, "hit"}} {
		code, body := fetchTrace(t, hs.URL, tc.st.ID, "native")
		if code != http.StatusOK {
			t.Fatalf("trace fetch: %d %s", code, body)
		}
		tr, err := trace.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		spans := map[string]*trace.Span{}
		for _, c := range tr.Root.Children {
			spans[c.Name] = c
		}
		dec, fp, adm := spans["decode"], spans["fingerprint"], spans["admission"]
		if dec == nil || fp == nil || adm == nil {
			t.Fatalf("job %s trace lacks decode/fingerprint/admission: %v", tc.st.ID, tr.Root.Children)
		}
		memo := ""
		for _, a := range dec.Attrs {
			if a.Key == "memo" {
				memo = a.Val
			}
		}
		if memo != tc.memo {
			t.Fatalf("job %s decode memo=%q, want %q", tc.st.ID, memo, tc.memo)
		}
		if fp.StartNS != dec.StartNS+dec.DurNS || adm.StartNS < fp.StartNS+fp.DurNS {
			t.Fatalf("job %s: decode [%d+%d], fingerprint [%d+%d], admission at %d: want them in order",
				tc.st.ID, dec.StartNS, dec.DurNS, fp.StartNS, fp.DurNS, adm.StartNS)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "tuplex_service_spec_memo_hits_total 1\n") {
		t.Fatalf("/metrics lacks the memo hit:\n%s", buf.String())
	}
}

// BenchmarkWarmSubmit is one warm submission of a serve.warm light plan
// through the handler, without a network: the body comes from the spec
// memo, the plan from the cache. A CPU profile of it (-cpuprofile) shows
// no spec.Decode and no encoding/json decoding.
func BenchmarkWarmSubmit(b *testing.B) {
	s := New(Config{Registry: telemetry.NewRegistry()})
	defer s.Close()
	h, body := s.Handler(), coldSpec(1)
	submit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	submit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	if hits := s.stats.SpecMemoHits.Load(); hits != int64(b.N) {
		b.Fatalf("%d memo hits in %d warm submissions", hits, b.N)
	}
}

// TestJobTraceFrontEndSpans pins the cold submission's front-end spans:
// build (the UDFs' parse) and plancheck sit between fingerprint and
// admission, and the engine's compile span splits its UDF work into
// infer_us, dataflow_us and codegen_us, which sum to at most the span.
// A warm resubmission runs neither the build nor the checker, and
// its trace has neither span.
func TestJobTraceFrontEndSpans(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1})
	cold := submitTraced(t, hs.URL, coldSpec(11), "")
	warm := submitTraced(t, hs.URL, coldSpec(11), "")
	if cold.CacheHit || !warm.CacheHit {
		t.Fatalf("want a cold then a warm submission, got cache_hit %v, %v", cold.CacheHit, warm.CacheHit)
	}
	for _, st := range []JobStatus{cold, warm} {
		code, body := fetchTrace(t, hs.URL, st.ID, "native")
		if code != http.StatusOK {
			t.Fatalf("trace fetch: %d %s", code, body)
		}
		tr, err := trace.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		spans := map[string]*trace.Span{}
		for _, c := range tr.Root.Children {
			spans[c.Name] = c
		}
		fp, build, check, adm := spans["fingerprint"], spans["build"], spans["plancheck"], spans["admission"]
		if st.CacheHit {
			if build != nil || check != nil {
				t.Fatalf("warm job %s has front-end spans: %v", st.ID, tr.Root.Children)
			}
			continue
		}
		if build == nil || check == nil {
			t.Fatalf("cold job %s lacks build/plancheck: %v", st.ID, tr.Root.Children)
		}
		if build.StartNS < fp.StartNS+fp.DurNS || check.StartNS != build.StartNS+build.DurNS ||
			adm.StartNS < check.StartNS+check.DurNS {
			t.Fatalf("cold job %s: fingerprint [%d+%d], build [%d+%d], plancheck [%d+%d], admission at %d: want them in order",
				st.ID, fp.StartNS, fp.DurNS, build.StartNS, build.DurNS, check.StartNS, check.DurNS, adm.StartNS)
		}
		compiles := 0
		var walk func(s *trace.Span)
		walk = func(s *trace.Span) {
			if s.Name == "compile" {
				compiles++
				var sum int64
				for _, key := range []string{"infer_us", "dataflow_us", "codegen_us"} {
					v := int64(-1)
					for _, a := range s.Attrs {
						if a.Key == key {
							v, _ = strconv.ParseInt(a.Val, 10, 64)
						}
					}
					if v < 0 {
						t.Fatalf("compile span lacks %s: %v", key, s.Attrs)
					}
					sum += v
				}
				if sum == 0 || sum*1000 > s.DurNS {
					t.Fatalf("compile span of %d ns: its phases sum to %d us", s.DurNS, sum)
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		if compiles == 0 {
			t.Fatalf("cold job %s has no compile span", st.ID)
		}
	}
}
