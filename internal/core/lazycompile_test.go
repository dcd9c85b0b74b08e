package core_test

import (
	"fmt"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// TestCleanRunCompilesNoGeneralPath pins that the general-path closures
// are built only when an exception row reaches them: a Zillow run over
// clean data compiles none, a dirty one does. The general plan is built
// only for a pool of at least 64 raw rows: neither the clean run nor
// dirty runs with pools of 11 and 31 rows build one.
func TestCleanRunCompilesNoGeneralPath(t *testing.T) {
	run := func(dirty float64) (compiles, plans, exceptions int64) {
		raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 42, DirtyFraction: dirty})
		c := tuplex.NewContext(tuplex.WithExecutors(2))
		before, plans0 := core.GeneralCompiles(), core.GeneralPlans()
		res, err := pipelines.Zillow(c.CSV("", tuplex.CSVData(raw))).Collect()
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics.Rows
		return core.GeneralCompiles() - before, core.GeneralPlans() - plans0, m.ClassifierRejects + m.NormalPathExceptions
	}
	if n, plans, exc := run(0); exc != 0 || n != 0 || plans != 0 {
		t.Fatalf("clean run: %d exception rows, %d general-path compiles, %d general plans; want none of either", exc, n, plans)
	}
	for _, dirty := range []float64{0.009, 0.02} {
		n, plans, exc := run(dirty)
		if exc == 0 || exc >= 64 || n == 0 {
			t.Fatalf("dirty run (%g): %d exception rows, %d general-path compiles; want a pool below 64 and compiles", dirty, exc, n)
		}
		if plans != 0 {
			t.Fatalf("dirty run (%g): a pool of %d rows built %d general plans", dirty, exc, plans)
		}
	}
}

// TestUncompilableGeneralPathFallsBack runs exception rows into a UDF
// the general path cannot compile (a nested lambda, in a branch no row
// takes): they resolve on the fallback interpreter, while the compilable
// UDF of the stage before resolves them on the general path. Two
// executors and over 64 exception rows per stage make resolve fan out
// to per-worker instances. The ledger is pinned per operator.
func TestUncompilableGeneralPathFallsBack(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 400; i++ {
		if i >= 100 && i%3 == 0 {
			fmt.Fprintf(&sb, "%d.5,%d\n", i, i%7)
		} else {
			fmt.Fprintf(&sb, "%d,%d\n", i, i%7)
		}
	}
	c := tuplex.NewContext(tuplex.WithExecutors(2), tuplex.WithSampleSize(50),
		tuplex.WithStageFusion(false), tuplex.WithTracing(tuplex.TraceRows))
	before := core.GeneralCompiles()
	res, err := c.CSV("", tuplex.CSVData([]byte(sb.String()))).
		WithColumn("d", tuplex.UDF("lambda x: x['a'] * 2")).
		WithColumn("e", tuplex.UDF(`def f(x):
    if x['b'] > 100:
        g = lambda y: y
        return g(x['a'])
    return x['a'] + x['b']
`)).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 400 || len(res.Failed) != 0 {
		t.Fatalf("want 400 rows and no failures, got %d rows, %d failed", len(res.Rows), len(res.Failed))
	}
	if n := core.GeneralCompiles() - before; n == 0 {
		t.Fatal("exception rows reached the general path, yet nothing was compiled")
	}
	var ledger []string
	var walk func(s *tuplex.Span)
	walk = func(s *tuplex.Span) {
		for _, r := range s.Routing {
			ledger = append(ledger, fmt.Sprintf("%s normal=%d exc=%d general=%d general_ok=%d fallback=%d fallback_ok=%d",
				r.Op, r.NormalIn, r.NormalExc, r.GeneralIn, r.GeneralResolved, r.FallbackIn, r.FallbackResolved))
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(res.Trace.Root)
	got := strings.Join(ledger, "\n")
	want := strings.Join([]string{
		"source normal=400 exc=100 general=0 general_ok=100 fallback=0 fallback_ok=0",
		"withColumn(d) normal=300 exc=0 general=100 general_ok=0 fallback=0 fallback_ok=0",
		"collect normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=0",
		"source normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=100",
		"withColumn(e) normal=300 exc=0 general=100 general_ok=0 fallback=100 fallback_ok=0",
		"collect normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=0",
	}, "\n")
	if got != want {
		t.Fatalf("routing ledger changed:\n%s\nwant:\n%s", got, want)
	}
}
