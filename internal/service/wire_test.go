package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// zillowFile writes a generated 20k-row Zillow file: through the Zillow
// pipeline, the heavy job of the warm-service benchmark (about 7.7k rows
// × 11 columns out).
func zillowFile(tb testing.TB) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "zillow.csv")
	if err := os.WriteFile(path, data.Zillow(data.ZillowConfig{Rows: 20_000, Seed: 1}), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

func zillowSet(path string) *tuplex.DataSet {
	return pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(1)).CSV(path))
}

// resultBytes returns a reply's "result" member as it was sent.
func resultBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("reply is not a JSON object: %v\n%s", err, body)
	}
	return doc["result"]
}

// checkCanonical asserts a reply body is exactly json.Marshal of the
// status it carries plus the newline json.Encoder writes: compact, in
// field order, with nothing re-encoded differently in the splice.
func checkCanonical(t *testing.T, body []byte) JobStatus {
	t.Helper()
	var st JobStatus
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // numbers re-marshal as the tokens they were
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decoding reply: %v\n%s", err, body)
	}
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Fatalf("reply body is not json.Marshal(status)+newline:\n got %s\nwant %s", body, want)
	}
	return st
}

// TestEncodeResultMatchesMarshal: a job's one encoding is the bytes
// json.Marshal writes for its JobResult, for every sink's shape.
func TestEncodeResultMatchesMarshal(t *testing.T) {
	for _, jr := range []*JobResult{
		{Columns: []string{"a", "<b>"}, Rows: [][]any{{int64(1), "x&y"}, {nil, 2.5e-7}}, Truncated: true,
			InputRows: 9, OutputRows: 4, FailedRows: 1},
		{Columns: []string{"a"}, Rows: [][]any{}, InputRows: 3},
		{Columns: []string{}, Rows: [][]any{{}}},
		{Value: float64(10), InputRows: 4},
		{Value: 0.0},
		{Value: []any{int64(1), "s", map[string]any{"k": true}}},
		{Columns: []string{"a"}, CSV: "a\n1\n\"q\"\n", InputRows: 1, OutputRows: 1},
		{Columns: []string{"a"}, CSVPath: "/out/x.csv"},
		{},
	} {
		want, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := encodeResult(jr); err != nil || !bytes.Equal(got, want) {
			t.Errorf("encodeResult = %s, %v\njson.Marshal = %s", got, err, want)
		}
	}
}

// TestReplyBodiesSpliceResult: the sync reply, GET of that job and GET
// of an async job of the same spec carry the same result bytes, and
// every body is byte-identical to json.Marshal of its status.
func TestReplyBodiesSpliceResult(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 2})
	spec := `{"v":1,
		"source":{"kind":"parallelize","columns":["s","n"],
			"rows":[["<a&b>",1],["line\u2028sep \"q\" \\ \u00e9 \ud83d\ude00",-2],["",1234567890123]]},
		"ops":[{"kind":"withColumn","col":"f","udf":{"code":"lambda x: x['n'] * 0.000000125"}}],
		"options":{"executors":1}}`
	code, sync := post(t, hs.URL+"/v1/jobs", spec)
	if code != http.StatusOK {
		t.Fatalf("sync submit: %d %s", code, sync)
	}
	st := checkCanonical(t, sync)
	if st.Result == nil || len(st.Result.Rows) != 3 {
		t.Fatalf("sync reply result: %+v", st.Result)
	}
	get := func(id string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.ContentLength != int64(buf.Len()) {
			t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, buf.Len())
		}
		return buf.Bytes()
	}
	again := get(st.ID)
	checkCanonical(t, again)
	want := resultBytes(t, sync)
	if got := resultBytes(t, again); !bytes.Equal(got, want) {
		t.Fatalf("GET result %s, sync reply result %s", got, want)
	}

	code, accepted := post(t, hs.URL+"/v1/jobs?wait=false", spec)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", code, accepted)
	}
	async := checkCanonical(t, accepted)
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := get(async.ID)
		if st := checkCanonical(t, body); st.State == StateDone {
			if got := resultBytes(t, body); !bytes.Equal(got, want) {
				t.Fatalf("async GET result %s, sync reply result %s", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNonFiniteResultFailsJob: a result value JSON cannot carry (an
// infinite float, in a row or as the aggregate value) fails the job
// with a 500 and a valid document whose error names the cell — not a
// 200 with an empty body.
func TestNonFiniteResultFailsJob(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	for _, tc := range []struct{ name, spec, wantErr string }{
		{"rows", `{"v":1,"source":{"kind":"csv","data":"a,b\n1.5,x\ninf,y\n2.5,z\n"},
			"ops":[{"kind":"map","udf":{"code":"lambda r: (r['a'] * 2.0, r['b'])"}}],
			"options":{"executors":1}}`,
			`result row 1, column "_0": json: unsupported value: +Inf`},
		{"aggregate", `{"v":1,"source":{"kind":"csv","data":"a\n1e308\n1e308\n"},
			"sink":{"kind":"aggregate","agg":{"code":"lambda acc, r: acc + r"},
				"comb":{"code":"lambda a, b: a + b"},"initial":0.0},
			"options":{"executors":1}}`,
			`aggregate value: json: unsupported value: +Inf`},
	} {
		code, body := post(t, hs.URL+"/v1/jobs", tc.spec)
		if code != http.StatusInternalServerError {
			t.Fatalf("%s: HTTP %d, want 500: %s", tc.name, code, body)
		}
		st := checkCanonical(t, body)
		if st.State != StateFailed || !strings.Contains(st.Error, tc.wantErr) || st.Result != nil || len(st.Events) == 0 {
			t.Fatalf("%s: state %s error %q result %v events %d; want failed naming %q, with events",
				tc.name, st.State, st.Error, st.Result, len(st.Events), tc.wantErr)
		}
	}
	if got := s.stats.JobsFailed.Load(); got != 2 {
		t.Fatalf("JobsFailed = %d, want 2", got)
	}
}

// TestWriteJSONEncodeError: a reply value that does not encode is
// answered with a 500 error document, never an empty 200.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.NaN()})
	var doc struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusInternalServerError || err != nil ||
		!strings.Contains(doc.Error, "unsupported value: NaN") {
		t.Fatalf("HTTP %d, body %q", rec.Code, rec.Body)
	}
}

// TestFinishedJobRetainsEncodedResult: a finished job keeps its result
// as encoded bytes, not boxed rows — the heap a finished ~7.7k-row job
// retains is at most 1.5× its encoded result.
func TestFinishedJobRetainsEncodedResult(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Registry: telemetry.NewRegistry()})
	defer s.Close()
	plan, err := zillowSet(zillowFile(t)).Plan()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	submit := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec)))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %.300s", rec.Code, rec.Body)
		}
	}
	submit() // the plan cache entry, compiled once, is not the job's
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	submit()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(before)

	jobs := s.jobs.list()
	jb := jobs[len(jobs)-1]
	st, result := jb.reply()
	if st.State != StateDone || len(result) < 500_000 {
		t.Fatalf("job %s %s with a %d-byte result; want a done ~1 MB Zillow result", st.ID, st.State, len(result))
	}
	if ceiling := int64(len(result)) * 3 / 2; retained > ceiling {
		t.Fatalf("a finished job retains %d heap bytes for a %d-byte encoded result (ceiling %d)", retained, len(result), ceiling)
	}
	t.Logf("retained %d bytes for a %d-byte result", retained, len(result))
}

var wireSink []byte

// BenchmarkJobWire sends a Zillow-shaped result (the warm-service
// benchmark's heavy job: ~7.7k rows × 11 columns) over the wire:
// encode is the server's one encoding at finish; get is one GET of the
// finished job, served over HTTP and decoded by tuplex.Client.
func BenchmarkJobWire(b *testing.B) {
	res, err := zillowSet(zillowFile(b)).Collect()
	if err != nil {
		b.Fatal(err)
	}
	jr := &JobResult{Columns: res.Columns, Rows: make([][]any, len(res.Rows)),
		InputRows: 20_000, OutputRows: int64(len(res.Rows))}
	for i, r := range res.Rows {
		jr.Rows[i] = r
	}
	enc, err := encodeResult(jr)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for range b.N {
			if wireSink, err = encodeResult(jr); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("get", func(b *testing.B) {
		s := New(Config{Registry: telemetry.NewRegistry()})
		defer s.Close()
		jb := s.jobs.create("wire")
		jb.finish(StateDone, true, enc, nil)
		s.jobs.retire(jb)
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		cl := tuplex.NewClient(hs.URL)
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		b.ResetTimer()
		for range b.N {
			j, err := cl.Job(context.Background(), jb.id)
			if err != nil {
				b.Fatal(err)
			}
			if len(j.Result.Rows) != len(jr.Rows) {
				b.Fatalf("decoded %d rows, sent %d", len(j.Result.Rows), len(jr.Rows))
			}
		}
	})
}
