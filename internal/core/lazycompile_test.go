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

// TestCleanRunCompilesNoGeneralPath pins that the general plan is built
// only for a pool of at least 64 raw rows: a Zillow run over clean data
// builds none, and neither do dirty runs with pools of 11 and 31 rows.
func TestCleanRunCompilesNoGeneralPath(t *testing.T) {
	run := func(dirty float64) (plans, exceptions int64) {
		raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 42, DirtyFraction: dirty})
		c := tuplex.NewContext(tuplex.WithExecutors(2))
		plans0 := core.GeneralPlans()
		res, err := pipelines.Zillow(c.CSV("", tuplex.CSVData(raw))).Collect()
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics.Rows
		return core.GeneralPlans() - plans0, m.ClassifierRejects + m.NormalPathExceptions
	}
	if plans, exc := run(0); exc != 0 || plans != 0 {
		t.Fatalf("clean run: %d exception rows, %d general plans; want none of either", exc, plans)
	}
	for _, dirty := range []float64{0.009, 0.02} {
		plans, exc := run(dirty)
		if exc == 0 || exc >= 64 {
			t.Fatalf("dirty run (%g): %d exception rows; want a pool below 64", dirty, exc)
		}
		if plans != 0 {
			t.Fatalf("dirty run (%g): a pool of %d rows built %d general plans", dirty, exc, plans)
		}
	}
}

// TestUncompilableGeneralPathFallsBack runs exception rows into a UDF
// the compilers cannot take (a nested lambda, in a branch no row takes):
// they resolve on the fallback interpreter. So do they in the stage
// before, whose general plan turns them away (a float in a column the
// sample saw only ints in), and the second stage's pool rows are carried
// over as boxed values, which only the fallback takes. The ledger is
// pinned per operator.
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
		"source normal=400 exc=100 general=0 general_ok=0 fallback=0 fallback_ok=100",
		"withColumn(d) normal=300 exc=0 general=0 general_ok=0 fallback=100 fallback_ok=0",
		"collect normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=0",
		"source normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=100",
		"withColumn(e) normal=300 exc=0 general=0 general_ok=0 fallback=100 fallback_ok=0",
		"collect normal=300 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=0",
	}, "\n")
	if got != want {
		t.Fatalf("routing ledger changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestLedgerAcrossOperatorsWithoutKernels pins the routing ledger of a
// stage whose rename, select, resolve and ignore sit between UDF
// operators. Those four compile to nothing, yet each keeps its ledger
// entry on every path: rows run the normal path, nulls the sample did
// not see go through the general plan, and a string in the float column
// (which the general parse rejects) and every row that raises in a UDF
// go to the fallback, where the resolver and the ignore handler act.
func TestLedgerAcrossOperatorsWithoutKernels(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b,s\n")
	for i := 0; i < 600; i++ {
		b := fmt.Sprintf("%d.25", i%17)
		switch {
		case i%50 == 3, i >= 100 && i%7 == 3:
			b = ""
		case i >= 100 && i%29 == 5:
			b = "x"
		}
		fmt.Fprintf(&sb, "%d,%s,s%d\n", i, b, i%5)
	}
	c := tuplex.NewContext(tuplex.WithExecutors(2), tuplex.WithSampleSize(50),
		tuplex.WithTracing(tuplex.TraceRows))
	res, err := c.CSV("", tuplex.CSVData([]byte(sb.String()))).
		WithColumn("c", tuplex.UDF("lambda x: x['b'] * 2.0 if x['b'] else -1.0")).
		RenameColumn("a", "id").
		MapColumn("s", tuplex.UDF("lambda s: 10 // int(s[1:])")).
		SelectColumns("id", "c", "s").
		Resolve(tuplex.ZeroDivisionError, tuplex.UDF("lambda s: -1")).
		Filter(tuplex.UDF("lambda x: x['id'] % 3 != 1")).
		WithColumn("d", tuplex.UDF("lambda x: x['c'] / (x['id'] % 4)")).
		Ignore(tuplex.ZeroDivisionError).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	var ledger []string
	var walk func(s *tuplex.Span)
	walk = func(s *tuplex.Span) {
		for _, r := range s.Routing {
			ledger = append(ledger, fmt.Sprintf("%s normal=%d exc=%d general=%d general_ok=%d fallback=%d fallback_ok=%d resolver=%d ignored=%d failed=%d",
				r.Op, r.NormalIn, r.NormalExc, r.GeneralIn, r.GeneralResolved, r.FallbackIn, r.FallbackResolved,
				r.ResolverResolved, r.Ignored, r.Failed))
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(res.Trace.Root)
	got := strings.Join(ledger, "\n")
	want := strings.Join([]string{
		"source normal=600 exc=97 general=0 general_ok=36 fallback=0 fallback_ok=0 resolver=7 ignored=40 failed=14",
		"withColumn(c) normal=503 exc=0 general=59 general_ok=0 fallback=210 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"rename normal=0 exc=0 general=59 general_ok=0 fallback=196 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"mapColumn(s) normal=503 exc=103 general=59 general_ok=0 fallback=196 fallback_ok=0 resolver=52 ignored=51 failed=0",
		"select normal=400 exc=0 general=59 general_ok=0 fallback=196 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"resolve normal=0 exc=0 general=59 general_ok=0 fallback=196 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"filter normal=400 exc=0 general=59 general_ok=0 fallback=196 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"withColumn(d) normal=267 exc=69 general=36 general_ok=0 fallback=157 fallback_ok=0 resolver=0 ignored=69 failed=0",
		"ignore normal=0 exc=0 general=36 general_ok=0 fallback=59 fallback_ok=0 resolver=0 ignored=0 failed=0",
		"collect normal=198 exc=0 general=0 general_ok=0 fallback=0 fallback_ok=0 resolver=0 ignored=0 failed=0",
	}, "\n")
	if got != want {
		t.Fatalf("routing ledger changed:\n%s\nwant:\n%s", got, want)
	}
	if len(res.Rows) != 293 || len(res.Failed) != 14 {
		t.Fatalf("got %d rows and %d failed, want 293 and 14", len(res.Rows), len(res.Failed))
	}
}
