package tuplex

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// traceCSV is a fixed input with two kinds of dirty row: "bad" fails
// the generated parser (a classifier reject attributed to the source
// entry, unresolvable) and the 0 row raises ZeroDivisionError inside
// the mapColumn UDF on the normal path (recovered by the resolver).
const traceCSV = "k,v\n1,10\n2,20\n3,bad\n4,40\n5,50\n6,0\n"

// tracedPipeline builds the fixed two-stage pipeline used by the trace
// tests: mapColumn + resolver, a Cache() stage boundary, then a filter.
func tracedPipeline(t *testing.T, opts ...Option) *Result {
	t.Helper()
	c := NewContext(opts...)
	res, err := c.CSV("", CSVData([]byte(traceCSV))).
		MapColumn("v", UDF("lambda v: 100.0 / v")).
		Resolve(ZeroDivisionError, UDF("lambda v: -1.0")).
		Cache().
		Filter(UDF("lambda x: x['v'] > 2.1")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// findSpans returns every span named name, depth-first.
func findSpans(s *Span, name string) []*Span {
	var out []*Span
	if s == nil {
		return nil
	}
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

func TestTraceShape(t *testing.T) {
	res := tracedPipeline(t, WithTracing(TraceSamples), WithExecutors(1))
	tr := res.Trace
	if tr == nil || tr.Root == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Level != TraceSamples {
		t.Fatalf("level = %v", tr.Level)
	}
	if tr.Root.Name != "run" {
		t.Fatalf("root span = %q", tr.Root.Name)
	}
	if tr.Root.DurNS <= 0 {
		t.Fatal("run span has no duration")
	}
	if n := len(findSpans(tr.Root, "plan")); n != 1 {
		t.Fatalf("plan spans = %d", n)
	}
	stages := findSpans(tr.Root, "stage")
	if len(stages) != 2 {
		t.Fatalf("stage spans = %d, want 2 (Cache splits the pipeline)", len(stages))
	}
	for i, st := range stages {
		if len(findSpans(st, "compile")) != 1 {
			t.Fatalf("stage %d: missing compile span", i)
		}
		ex := findSpans(st, "execute")
		if len(ex) != 1 {
			t.Fatalf("stage %d: missing execute span", i)
		}
		if len(ex[0].Tasks) == 0 {
			t.Fatalf("stage %d: no task timings", i)
		}
		for _, task := range ex[0].Tasks {
			if task.Worker != 0 {
				t.Fatalf("stage %d: worker = %d with 1 executor", i, task.Worker)
			}
		}
		if len(st.Routing) < 2 {
			t.Fatalf("stage %d: routing ledger = %v", i, st.Routing)
		}
		if st.Routing[0].Op != "source" {
			t.Fatalf("stage %d: ledger[0].Op = %q", i, st.Routing[0].Op)
		}
	}
	// Stage 0's ledger: 6 rows enter; "bad" rejects at the source entry
	// and fails, the 0 row raises ZeroDivisionError at the mapColumn and
	// the resolver recovers it.
	r0 := stages[0].Routing
	if r0[0].NormalIn != 6 {
		t.Fatalf("source normal_in = %d", r0[0].NormalIn)
	}
	var mc *OpRouting
	for i := range r0 {
		if r0[i].Op == "mapColumn(v)" {
			mc = &r0[i]
		}
	}
	if mc == nil {
		t.Fatalf("no mapColumn entry in ledger %+v", r0)
	}
	if mc.NormalExc != 1 || mc.ResolverResolved != 1 {
		t.Fatalf("mapColumn entry = %+v, want the ZeroDivisionError raised and resolved here", *mc)
	}
	if r0[0].NormalExc != 1 || r0[0].Failed != 1 {
		t.Fatalf("source entry = %+v, want the parse reject raised and failed here", r0[0])
	}
	// The exception row samples name the op and the exception class.
	var samples []ExceptionSample
	for _, st := range stages {
		samples = append(samples, st.Samples...)
	}
	var zd *ExceptionSample
	for i := range samples {
		if samples[i].Exc == "ZeroDivisionError" {
			zd = &samples[i]
		}
	}
	if zd == nil || zd.Op != "mapColumn(v)" || zd.Outcome != "resolver" {
		t.Fatalf("samples = %+v, want a resolver-resolved ZeroDivisionError at mapColumn(v)", samples)
	}
	if n := len(findSpans(tr.Root, "sink")); n != 1 {
		t.Fatalf("sink spans = %d", n)
	}
}

// attr returns the value of the named attribute, or "" if absent.
func attr(s *Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func TestTraceAnalyzeSpan(t *testing.T) {
	// j is constant 5 across the whole input, so under compiler
	// optimizations the dataflow pass folds the divisor, elides the
	// zero check and installs one guard on the sampled fact.
	csv := "i,j\n"
	for n := range 50 {
		csv += fmt.Sprintf("%d,5\n", n)
	}
	c := NewContext(WithTracing(TraceSpans))
	res, err := c.CSV("", CSVData([]byte(csv))).
		WithColumn("v", UDF("lambda x: x['i'] // x['j']")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	spans := findSpans(res.Trace.Root, "analyze")
	if len(spans) != 1 {
		t.Fatalf("analyze spans = %d, want 1", len(spans))
	}
	a := spans[0]
	if got := attr(a, "op"); got != "withColumn(v)" {
		t.Fatalf("op attr = %q", got)
	}
	if got := attr(a, "can_raise"); !strings.Contains(got, "ZeroDivisionError") {
		t.Fatalf("can_raise attr = %q, want ZeroDivisionError", got)
	}
	if got := attr(a, "consts_folded"); got != "1" {
		t.Fatalf("consts_folded attr = %q", got)
	}
	if got := attr(a, "checks_elided"); got != "1" {
		t.Fatalf("checks_elided attr = %q", got)
	}
	if got := attr(a, "guards"); got != "1" {
		t.Fatalf("guards attr = %q", got)
	}
	if got := attr(a, "lints"); got != "0" {
		t.Fatalf("lints attr = %q", got)
	}

	// With compiler optimizations off the analyze span still records
	// the inferred exception sites, but no specialization happens.
	c = NewContext(WithTracing(TraceSpans), WithCompilerOptimizations(false))
	res, err = c.CSV("", CSVData([]byte(csv))).
		WithColumn("v", UDF("lambda x: x['i'] // x['j']")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	spans = findSpans(res.Trace.Root, "analyze")
	if len(spans) != 1 {
		t.Fatalf("unoptimized analyze spans = %d, want 1", len(spans))
	}
	a = spans[0]
	if got := attr(a, "can_raise"); !strings.Contains(got, "ZeroDivisionError") {
		t.Fatalf("unoptimized can_raise attr = %q", got)
	}
	if got := attr(a, "guards"); got != "" && got != "0" {
		t.Fatalf("unoptimized guards attr = %q, want none", got)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	res := tracedPipeline(t, WithTracing(TraceSamples), WithExecutors(2))
	b, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trace, &back) {
		b2, _ := json.Marshal(&back)
		t.Fatalf("trace does not round-trip:\n  %s\nvs\n  %s", b, b2)
	}
}

func TestTraceOffAndDefault(t *testing.T) {
	res := tracedPipeline(t, WithTracing(TraceOff))
	if res.Trace != nil {
		t.Fatalf("TraceOff: trace = %+v", res.Trace)
	}
	res = tracedPipeline(t) // default level
	if res.Trace == nil || res.Trace.Level != TraceSpans {
		t.Fatalf("default trace = %+v", res.Trace)
	}
	// Spans only: no per-row data recorded.
	for _, st := range findSpans(res.Trace.Root, "stage") {
		if st.Routing != nil || st.Samples != nil {
			t.Fatalf("TraceSpans recorded row data: %+v", st)
		}
	}
}

// routingCounts concatenates the stage spans' routing ledgers.
func routingCounts(spans []*Span) []OpRouting {
	var out []OpRouting
	for _, s := range spans {
		out = append(out, s.Routing...)
	}
	return out
}

func TestTraceDeterministicAcrossExecutors(t *testing.T) {
	one := tracedPipeline(t, WithTracing(TraceRows), WithExecutors(1))
	eight := tracedPipeline(t, WithTracing(TraceRows), WithExecutors(8))
	r1 := routingCounts(findSpans(one.Trace.Root, "stage"))
	r8 := routingCounts(findSpans(eight.Trace.Root, "stage"))
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("routing ledgers differ:\n1 executor: %+v\n8 executors: %+v", r1, r8)
	}
	if !reflect.DeepEqual(one.Rows, eight.Rows) {
		t.Fatal("row output differs across executor counts")
	}
}

func TestTraceLedgerReconcilesWithMetrics(t *testing.T) {
	// Dirty input: "boom" rows fail (no resolver), at sample size 2 the
	// normal case is int so the string rows leave the normal path.
	csv := "v\n1\n2\nboom\n4\nboom\n6\n7\n8\n"
	c := NewContext(WithTracing(TraceRows), WithSampleSize(2))
	res, err := c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda v: v + 1")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sum OpRouting
	for _, r := range routingCounts(findSpans(res.Trace.Root, "stage")) {
		sum.NormalExc += r.NormalExc
		sum.GeneralResolved += r.GeneralResolved
		sum.FallbackResolved += r.FallbackResolved
		sum.ResolverResolved += r.ResolverResolved
		sum.Ignored += r.Ignored
		sum.Failed += r.Failed
	}
	m := res.Metrics.Rows
	if got, want := sum.NormalExc, m.ClassifierRejects+m.NormalPathExceptions; got != want {
		t.Fatalf("ledger exceptions = %d, metrics = %d", got, want)
	}
	if sum.GeneralResolved != m.GeneralResolved ||
		sum.FallbackResolved != m.FallbackResolved ||
		sum.ResolverResolved != m.ResolverResolved ||
		sum.Ignored != m.Ignored || sum.Failed != m.Failed {
		t.Fatalf("ledger outcomes %+v do not reconcile with metrics %+v", sum, m)
	}
	if sum.Failed == 0 {
		t.Fatal("expected failed rows in this fixture")
	}
}

func TestTraceString(t *testing.T) {
	res := tracedPipeline(t, WithTracing(TraceSamples))
	s := res.Trace.String()
	for _, want := range []string{"run ", "stage", "execute", "sink", "mapColumn(v)", "ZeroDivisionError"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace tree missing %q:\n%s", want, s)
		}
	}
	var empty *Trace
	if empty.String() != "trace: (empty)" {
		t.Fatalf("nil trace String = %q", empty.String())
	}
}

// TestTraceSampleExcEvaluatesOperandsFirst: an operator inference rejects
// (str - int) still evaluates its operands first, so the normal path
// raises the ZeroDivisionError of 1 // 0, as the general path does; the
// trace's sample names the exception the normal path raised.
func TestTraceSampleExcEvaluatesOperandsFirst(t *testing.T) {
	c := NewContext(WithTracing(TraceSamples))
	res, err := c.Parallelize([][]any{{"s", 0, true}}, []string{"t", "a", "h"}).
		Map(UDF("lambda r: (r['t'] - (1 // r['a'])) if r['h'] else r['a']")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Exc != ZeroDivisionError {
		t.Fatalf("failed rows = %+v, want one ZeroDivisionError", res.Failed)
	}
	var samples []ExceptionSample
	for _, st := range findSpans(res.Trace.Root, "stage") {
		samples = append(samples, st.Samples...)
	}
	if len(samples) != 1 || samples[0].Exc != "ZeroDivisionError" {
		t.Fatalf("samples = %+v, want the normal path's ZeroDivisionError", samples)
	}
}
