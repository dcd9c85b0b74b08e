package spec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gotuplex/tuplex/internal/core"
)

// dirtyPipeline exercises the full dual-mode machinery (normal path,
// resolvers, exception rows) so the warm/cold comparison covers more
// than the happy path.
func dirtyPipeline() *Pipeline {
	p := &Pipeline{
		V: Version,
		Source: Source{
			Kind: "csv",
			Data: "a,b\n1,2\n3,4\nbad,6\n5,oops\n7,8\n",
		},
		Ops: []Op{
			{Kind: "withColumn", Col: "s", UDF: &UDF{Code: "lambda x: int(x['a']) + int(x['b'])"}},
			{Kind: "resolve", Exc: "ValueError", UDF: &UDF{Code: "lambda x: -1"}},
			{Kind: "filter", UDF: &UDF{Code: "lambda x: x['s'] != 0"}},
		},
		Options: &Options{Executors: 2},
	}
	return p
}

func rowsJSON(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(ResultRows(res, -1))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCompiledPlanWarmMatchesCold is the warm-path differential: a
// CompiledPlan re-execution must produce exactly what the compiling run
// produced and what a from-scratch execution produces — including the
// failed-row accounting — and stay correct across repeated and
// concurrent warm runs (template state must be per-run).
func TestCompiledPlanWarmMatchesCold(t *testing.T) {
	b, err := dirtyPipeline().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, cp, err := core.CompileAndExecute(ctx, b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.ExecuteContext(ctx, b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsJSON(t, fresh)
	if got := rowsJSON(t, cold); got != want {
		t.Fatalf("cold run diverged from fresh:\n%s\nvs\n%s", got, want)
	}
	for i := 0; i < 3; i++ {
		warm, err := cp.Execute(ctx, "")
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		if got := rowsJSON(t, warm); got != want {
			t.Fatalf("warm %d diverged:\n%s\nvs\n%s", i, got, want)
		}
		if got, want := len(warm.Failed), len(fresh.Failed); got != want {
			t.Fatalf("warm %d failed rows: %d vs %d", i, got, want)
		}
	}
	// Concurrent warm executions of one shared template (run under
	// -race in CI: clones must not share mutable state).
	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warm, err := cp.Execute(ctx, "")
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = rowsJSON(t, warm)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent warm %d: %v", i, errs[i])
		}
		if outs[i] != want {
			t.Fatalf("concurrent warm %d diverged", i)
		}
	}
}

// TestCompiledPlanAggregateWarm covers the boxed-interpreter cloning
// path (aggregate folds are interpreted, and interpreters are not
// shareable across runs).
func TestCompiledPlanAggregateWarm(t *testing.T) {
	p := &Pipeline{
		V:      Version,
		Source: Source{Kind: "parallelize", Columns: []string{"a"}, Rows: [][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}}},
		Sink: Sink{
			Kind:    "aggregate",
			Agg:     &UDF{Code: "lambda acc, row: acc + row"},
			Comb:    &UDF{Code: "lambda a, b: a + b"},
			Initial: int64(0),
		},
		Options: &Options{Executors: 2},
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, cp, err := core.CompileAndExecute(ctx, b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsJSON(t, cold)
	for i := 0; i < 3; i++ {
		warm, err := cp.Execute(ctx, "")
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		if got := rowsJSON(t, warm); got != want {
			t.Fatalf("warm aggregate %d: %s vs %s", i, got, want)
		}
	}
}

// TestCompiledPlanCancellation: warm executions observe context
// cancellation like cold ones.
func TestCompiledPlanCancellation(t *testing.T) {
	b, err := dirtyPipeline().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, cp, err := core.CompileAndExecute(context.Background(), b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cp.Execute(ctx, ""); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestCompiledPlanJoinWarm: join build tables are per-run state. A warm
// execution re-reads the build side (once) and probes the table it
// built itself — never the compiling run's — so rewriting both inputs
// at the same size between runs shows up in the warm rows, and the warm
// run does exactly the cold run's I/O and stage work.
func TestCompiledPlanJoinWarm(t *testing.T) {
	dir := t.TempDir()
	probe := filepath.Join(dir, "probe.csv")
	build := filepath.Join(dir, "build.csv")
	write := func(path, data string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(probe, "id,v\n1,10\n2,20\n3,30\n")
	write(build, "id,name\n1,aa\n2,bb\n")
	p := &Pipeline{
		V:      Version,
		Source: Source{Kind: "csv", Path: probe},
		Ops: []Op{{
			Kind: "join", LeftKey: "id", RightKey: "id",
			Build: &Pipeline{Source: Source{Kind: "csv", Path: build}},
		}},
		Options: &Options{Executors: 2},
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, cp, err := core.CompileAndExecute(ctx, b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, cold), `[[1,10,"aa"],[2,20,"bb"]]`; got != want {
		t.Fatalf("cold rows = %s, want %s", got, want)
	}

	// Same sizes, new content on both sides.
	write(probe, "id,v\n1,11\n2,21\n3,31\n")
	write(build, "id,name\n1,xx\n3,zz\n")
	const want = `[[1,11,"xx"],[3,31,"zz"]]`
	check := func(name string, warm *core.Result) {
		t.Helper()
		if got := rowsJSON(t, warm); got != want {
			t.Errorf("%s rows = %s, want %s (stale build table?)", name, got, want)
		}
		cm, wm := cold.Metrics, warm.Metrics
		if c, w := cm.Counters.InputRows.Load(), wm.Counters.InputRows.Load(); c != w {
			t.Errorf("%s input rows = %d, cold read %d", name, w, c)
		}
		if c, w := cm.Ingest.BytesRead.Load(), wm.Ingest.BytesRead.Load(); c != w {
			t.Errorf("%s bytes read = %d, cold read %d (each file must be read once)", name, w, c)
		}
		if cm.Stages != wm.Stages {
			t.Errorf("%s stages = %d, cold ran %d (build chain must run once)", name, wm.Stages, cm.Stages)
		}
	}
	warm, err := cp.Execute(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	check("warm", warm)

	var wg sync.WaitGroup
	results := make([]*core.Result, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cp.Execute(ctx, "")
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent warm %d: %v", i, errs[i])
		}
		check(fmt.Sprintf("concurrent warm %d", i), res)
	}
}
