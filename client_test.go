package tuplex

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gotuplex/tuplex/internal/service"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// TestClientEndToEnd drives a real daemon through the public client:
// sync submit, warm resubmit (cache hit), async submit + wait, listing,
// cancel semantics and typed rejection errors.
func TestClientEndToEnd(t *testing.T) {
	srv, err := service.Serve(service.Config{
		Addr:     "127.0.0.1:0",
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient("http://" + srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	c := NewContext(WithExecutors(1))
	pl, err := c.Parallelize([][]any{{int64(1)}, {int64(2)}, {int64(3)}}, []string{"a"}).
		Map(UDF("lambda a: a * k").WithGlobal("k", int64(5))).
		Plan()
	if err != nil {
		t.Fatal(err)
	}

	cold, err := cl.Submit(ctx, pl)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if cold.State != "done" || cold.CacheHit || cold.Result == nil {
		t.Fatalf("cold job: %+v", cold)
	}
	if len(cold.Result.Rows) != 3 || cold.Result.Rows[0][0].(float64) != 5 {
		t.Fatalf("cold rows: %v", cold.Result.Rows)
	}

	if cold.TraceID == "" {
		t.Fatal("submissions must carry a trace id")
	}

	warm, err := cl.SubmitTraced(ctx, pl, "client-warm-1")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatalf("identical resubmission must hit the plan cache: %+v", warm)
	}
	if warm.TraceID != "client-warm-1" {
		t.Fatalf("trace id not propagated: %+v", warm.TraceID)
	}
	if fp, _ := pl.Fingerprint(); fp != warm.Fingerprint {
		t.Fatalf("client and server fingerprints disagree: %s vs %s", fp, warm.Fingerprint)
	}

	// The warm job's trace is fetchable in both formats: the native span
	// tree with service spans above the engine run, and a Chrome
	// trace-event document.
	jtr, err := cl.Trace(ctx, warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jtr.Root == nil || jtr.Root.Name != "job" {
		t.Fatalf("job trace root: %+v", jtr.Root)
	}
	if len(findSpans(jtr.Root, "admission")) != 1 || len(findSpans(jtr.Root, "run")) != 1 {
		t.Fatalf("job trace lacks service or engine spans: %s", jtr)
	}
	chromeTrace, err := cl.TraceChrome(ctx, warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(chromeTrace, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome trace invalid (%v), %d events", err, len(doc.TraceEvents))
	}

	async, err := cl.SubmitAsync(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	finished, err := cl.Wait(ctx, async.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finished.State != "done" || !finished.CacheHit {
		t.Fatalf("async job: %+v", finished)
	}

	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("want 3 listed jobs, got %d", len(jobs))
	}

	// Cancel on a finished job reports its terminal state untouched.
	got, err := cl.Cancel(ctx, finished.ID)
	if err != nil || got.State != "done" {
		t.Fatalf("cancel finished: %+v / %v", got, err)
	}

	// A job that fails at runtime returns both the record and a typed
	// error.
	badPlan, err := ParsePlan([]byte(`{"v":1,"source":{"kind":"csv","path":"/does/not/exist.csv"}}`))
	if err != nil {
		t.Fatal(err)
	}
	failed, err := cl.Submit(ctx, badPlan)
	var se *ServiceError
	if !errors.As(err, &se) || se.StatusCode != 500 {
		t.Fatalf("want ServiceError 500, got %v", err)
	}
	if failed == nil || failed.State != "failed" || failed.Error == "" {
		t.Fatalf("failed job record: %+v", failed)
	}
	// Failed jobs ship the flight recorder's tail for the job so the
	// error report is self-contained.
	if len(failed.Events) == 0 {
		t.Fatalf("failed job carries no flight-recorder events: %+v", failed)
	}
	for _, ev := range failed.Events {
		if ev.Job != failed.ID {
			t.Fatalf("foreign event in failed job payload: %+v", ev)
		}
	}

	// Unknown job ids surface as typed 404s.
	if _, err := cl.Job(ctx, "nope"); !errors.As(err, &se) || se.StatusCode != 404 {
		t.Fatalf("want ServiceError 404, got %v", err)
	}
}

// TestClientReportsExpiredResult finishes an async job, pushes the
// daemon's finished-job ring past its result byte budget with later
// jobs of about 4 MiB each, and checks Job and Wait then hand back the
// flagged job with ErrResultExpired, never a done job without its
// result.
func TestClientReportsExpiredResult(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,s\n")
	pad := strings.Repeat("x", 120)
	for i := 0; i < 32_000; i++ {
		fmt.Fprintf(&b, "%d,%s\n", i, pad)
	}
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := service.Serve(service.Config{Addr: "127.0.0.1:0", Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient("http://" + srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pl, err := NewContext(WithExecutors(1)).CSV(path).
		WithColumn("t", UDF("lambda x: x['id'] + 1")).Plan()
	if err != nil {
		t.Fatal(err)
	}
	pl = pl.WithCSVSink("")

	async, err := cl.SubmitAsync(ctx, pl)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cl.Wait(ctx, async.ID)
	if err != nil || first.Result == nil || first.ResultExpired {
		t.Fatalf("async job before expiry: %+v / %v", first, err)
	}
	for i := 0; srv.Stats().ResultsExpired.Load() == 0; i++ {
		if i == 10 {
			t.Fatal("ten more jobs expired no result")
		}
		j, err := cl.Submit(ctx, pl)
		if err != nil || j.Result == nil || len(j.Result.CSV) != len(first.Result.CSV) {
			t.Fatalf("sync job %d: %+v / %v", i, j, err)
		}
	}
	for name, get := range map[string]func(context.Context, string) (*Job, error){"Job": cl.Job, "Wait": cl.Wait} {
		j, err := get(ctx, async.ID)
		if !errors.Is(err, ErrResultExpired) || j == nil || !j.ResultExpired || j.Result != nil || j.State != "done" {
			t.Fatalf("%s on the expired job: %+v / %v", name, j, err)
		}
	}
}
