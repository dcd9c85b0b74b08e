package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// everyUDFSpec carries a UDF in each place a spec can hold one: a
// withColumn, its resolver, a filter, a mapColumn, a join build side's
// withColumn and both halves of an aggregate sink.
const everyUDFSpec = `{"v":1,
	"source": {"kind":"parallelize","columns":["a","s"],"rows":[[1,"x"],[2,"y"],[0,"z"]]},
	"ops": [
		{"kind":"withColumn","col":"b","udf":{"code":"lambda x: 10 // x['a']"}},
		{"kind":"resolve","exc":"ZeroDivisionError","udf":{"code":"lambda x: -1"}},
		{"kind":"filter","udf":{"code":"lambda x: x['b'] != 5"}},
		{"kind":"mapColumn","col":"s","udf":{"code":"lambda s: s.upper()"}},
		{"kind":"join","left_key":"s","right_key":"k","build":{
			"source": {"kind":"parallelize","columns":["k","v"],"rows":[["X",1],["Z",3]]},
			"ops": [{"kind":"withColumn","col":"w","udf":{"code":"lambda r: r['v'] * 2"}}]}}
	],
	"sink": {"kind":"aggregate","initial":0,
		"agg":{"code":"lambda acc, r: acc + r['b'] + r['w']"},
		"comb":{"code":"lambda a, b: a + b"}},
	"options": {"executors": 1}}`

// specUDFs lists every UDF of a pipeline, join build sides included.
func specUDFs(p *spec.Pipeline) []*spec.UDF {
	var out []*spec.UDF
	for i := range p.Ops {
		op := &p.Ops[i]
		for _, u := range []*spec.UDF{op.UDF, op.Agg, op.Comb} {
			if u != nil {
				out = append(out, u)
			}
		}
		if op.Build != nil {
			out = append(out, specUDFs(op.Build)...)
		}
	}
	for _, u := range []*spec.UDF{p.Sink.Agg, p.Sink.Comb} {
		if u != nil {
			out = append(out, u)
		}
	}
	return out
}

// planFns collects the function ASTs a logical plan runs.
func planFns(n *logical.Node, into map[*pyast.Function]bool) {
	for ; n != nil; n = n.Input {
		var specs []*logical.UDFSpec
		switch op := n.Op.(type) {
		case *logical.MapOp:
			specs = append(specs, op.UDF)
		case *logical.FilterOp:
			specs = append(specs, op.UDF)
		case *logical.WithColumnOp:
			specs = append(specs, op.UDF)
		case *logical.MapColumnOp:
			specs = append(specs, op.UDF)
		case *logical.ResolveOp:
			specs = append(specs, op.UDF)
		case *logical.AggregateOp:
			specs = append(specs, op.Agg, op.Comb)
		case *logical.JoinOp:
			planFns(op.Build, into)
		}
		for _, s := range specs {
			into[s.Fn] = true
		}
	}
}

// TestColdSubmitParsesOnce pins that a cold submission parses each UDF
// once: the admission checker analyzes the ASTs the build parsed, and
// the plan the cache keeps runs those same ASTs.
func TestColdSubmitParsesOnce(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	// The checker runs on the handler's goroutine.
	var mu sync.Mutex
	checked := map[*pyast.Function]bool{}
	calls := 0
	s.check = func(p *spec.Pipeline, parsed spec.Parsed) []plancheck.Diagnostic {
		diags := plancheck.CheckParsed(p, parsed)
		mu.Lock()
		defer mu.Unlock()
		calls++
		udfs := specUDFs(p)
		if len(parsed) != len(udfs) {
			t.Errorf("the checker got %d parsed UDFs, the spec has %d", len(parsed), len(udfs))
		}
		for _, u := range udfs {
			if parsed[u] == nil {
				t.Errorf("no build parse for UDF %q", u.Code)
				continue
			}
			checked[parsed[u].Fn] = true
		}
		// The checker typed the build's AST, not a parse of its own.
		ret := parsed[p.Ops[0].UDF].Fn.Body[0].(*pyast.Return)
		if !ret.X.Type().IsValid() {
			t.Errorf("the checker did not analyze the build's AST of %q", p.Ops[0].UDF.Code)
		}
		return diags
	}

	code, raw := post(t, hs.URL+"/v1/jobs", everyUDFSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if st := decodeStatus(t, raw); st.State != StateDone || st.Result == nil || st.Result.Value == nil {
		t.Fatalf("want a done job with an aggregate value, got %s", raw)
	}
	mu.Lock()
	n := calls
	mu.Unlock()
	if n != 1 {
		t.Fatalf("the checker ran %d times for one cold submission", n)
	}
	s.cache.mu.Lock()
	var built *spec.Built
	for _, e := range s.cache.entries {
		built = e.built
	}
	s.cache.mu.Unlock()
	if built == nil {
		t.Fatal("the cold submission left no cached plan")
	}
	ran := map[*pyast.Function]bool{}
	planFns(built.Node, ran)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != len(checked) {
		t.Fatalf("the cached plan runs %d UDF ASTs, the checker analyzed %d", len(ran), len(checked))
	}
	for fn := range ran {
		if !checked[fn] {
			t.Fatalf("the cached plan runs an AST the checker never saw (%q): the UDF was parsed twice", fn.Source)
		}
	}

}

// TestWarmSubmitSkipsCheck pins that a cached plan's resubmission runs
// neither the build nor the checker.
func TestWarmSubmitSkipsCheck(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	var calls atomic.Int64
	s.check = func(p *spec.Pipeline, parsed spec.Parsed) []plancheck.Diagnostic {
		calls.Add(1)
		return plancheck.CheckParsed(p, parsed)
	}
	for i := 0; i < 2; i++ {
		if code, raw := post(t, hs.URL+"/v1/jobs", everyUDFSpec); code != http.StatusOK || decodeStatus(t, raw).CacheHit != (i == 1) {
			t.Fatalf("submission %d: status %d: %s", i, code, raw)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the checker ran %d times for a cold and a warm submission", n)
	}
}

// TestUnparsableUDFRejected pins the rejection of a spec whose UDF does
// not parse: Build fails, so the checker parses on its own and the
// submission gets the same 422 and TPX010 diagnostic as /v1/validate.
func TestUnparsableUDFRejected(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	body := `{"v":1,
	"source": {"kind":"parallelize","columns":["a","b"],"rows":[[1,2]]},
	"ops": [
		{"kind":"withColumn","col":"c","udf":{"code":"lambda x: x['a'] + 1"}},
		{"kind":"filter","udf":{"code":"lambda x: x['c'] >"}}
	]}`
	want := []plancheck.Diagnostic{{
		Code: plancheck.CodeMalformedSpec, Severity: plancheck.SevError, Op: "ops[1]", Kind: "filter",
		Msg: "unparsable UDF: python:1:19: unexpected token NEWLINE@1:19",
	}}
	code, raw := post(t, hs.URL+"/v1/jobs", body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d (%s)", code, raw)
	}
	vr := decodeValidate(t, raw)
	if vr.OK || vr.Error != "spec failed static verification with 1 error(s)" || fmt.Sprint(vr.Diagnostics) != fmt.Sprint(want) {
		t.Fatalf("rejection body changed:\n%s", raw)
	}
	code, raw = post(t, hs.URL+"/v1/validate", body)
	if code != http.StatusOK || fmt.Sprint(decodeValidate(t, raw).Diagnostics) != fmt.Sprint(want) {
		t.Fatalf("validate: status %d, body:\n%s", code, raw)
	}
	if n := s.stats.JobsInvalid.Load(); n != 1 {
		t.Fatalf("want jobs_invalid=1, got %d", n)
	}
}

// coldSpec is the serve.cold benchmark's plan shape: six withColumn
// UDFs of 40 conditional terms each over four inline rows, the global
// k0 making every k a distinct plan.
func coldSpec(k int) string {
	var sb strings.Builder
	sb.WriteString(`{"v":1,"source":{"kind":"parallelize","columns":["a","s"],` +
		`"rows":[[1,"aa"],[2,"bb"],[3,"cc"],[4,"dd"]]},"ops":[`)
	prev := "a"
	for i := 0; i < 6; i++ {
		col := fmt.Sprintf("c%d", i)
		fmt.Fprintf(&sb, `{"kind":"withColumn","col":%q,"udf":{"code":"lambda x: x['%s'] + k0`, col, prev)
		for t := 0; t < 40; t++ {
			fmt.Fprintf(&sb, " + (x['%s'] * %d if x['%s'] %% %d == 0 else %d - x['%s'])", prev, t+1, prev, t+2, t, prev)
		}
		fmt.Fprintf(&sb, `","globals":{"k0":%d}}},`, k)
		prev = col
	}
	fmt.Fprintf(&sb, `{"kind":"selectColumns","cols":["a",%q,"s"]}],"options":{"executors":1}}`, prev)
	return sb.String()
}

// BenchmarkColdSubmit is one cold submission in process, without HTTP
// or the plan cache: decode, build, check over the build's parse,
// then compile and execute with the service's per-job options. Each
// iteration submits a fresh k, so nothing carries over.
func BenchmarkColdSubmit(b *testing.B) {
	s := New(Config{Registry: telemetry.NewRegistry()})
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := spec.Decode([]byte(coldSpec(i)))
		if err != nil {
			b.Fatal(err)
		}
		built, diags := s.buildChecked(p, time.Now(), &frontTimes{})
		if built == nil || plancheck.HasErrors(diags) {
			b.Fatalf("cold spec rejected: %v", diags)
		}
		s.tuneOpts(built, &job{id: fmt.Sprintf("b%d", i)})
		res, _, err := core.CompileAndExecute(ctx, built.Node, built.Kind, built.CSVPath, built.Opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Metrics.Counters.OutputRows.Load(); n != 4 {
			b.Fatalf("want 4 output rows, got %d", n)
		}
	}
}
