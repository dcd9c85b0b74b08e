package core_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/trace"
)

// The vector kernels claim to change nothing but speed. These tests run
// one compiled plan twice — as compiled, and with every vector program
// stripped from it (CompiledPlan.StripVec, export_test.go) so the row
// closures do all the work — and require the
// two runs to be indistinguishable: result bits, path counters, the
// per-operator routing ledger, the exception pool's size, its sampled
// rows and the failed rows.

func mustUDF(t *testing.T, src string) *logical.UDFSpec {
	t.Helper()
	u, err := logical.ParseUDF(src, nil)
	if err != nil {
		t.Fatalf("ParseUDF(%q): %v", src, err)
	}
	return u
}

// chain links ops source-first into a plan and returns its sink node.
func chain(ops ...logical.Op) *logical.Node {
	var n *logical.Node
	for _, op := range ops {
		n = &logical.Node{Op: op, Input: n}
	}
	return n
}

// runObs is everything observable about one run except wall time.
type runObs struct {
	Result   string
	Counters [10]int64
	Ledgers  [][]trace.OpRouting
	Samples  [][]trace.ExcSample
	Pools    []string
	Failed   []core.FailedRow
	Vector   int64
	Bail     int64
	Kernels  []string
}

// f64bits folds every NaN to one pattern: the sign and payload a
// NaN ⊕ NaN instruction keeps is the compiler's choice of operand order
// on either path, so only NaN-ness is comparable.
func f64bits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

func observe(t *testing.T, res *core.Result) runObs {
	t.Helper()
	var o runObs
	// Every plan these tests run yields rows: an empty result would make
	// the comparison vacuous.
	if len(res.Rows) == 0 {
		t.Fatalf("no result rows (output rows %d)", res.Metrics.Counters.OutputRows.Load())
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&sb, "f64:%#x ", f64bits(f))
			} else {
				fmt.Fprintf(&sb, "%T:%q ", v, fmt.Sprint(v))
			}
		}
		sb.WriteString("| ")
	}
	o.Result = sb.String()
	c := &res.Metrics.Counters
	o.Counters = [10]int64{c.InputRows.Load(), c.NormalRows.Load(), c.ClassifierRejects.Load(),
		c.NormalPathExceptions.Load(), c.GeneralResolved.Load(), c.FallbackResolved.Load(),
		c.ResolverResolved.Load(), c.IgnoredRows.Load(), c.FailedRows.Load(), c.OutputRows.Load()}
	o.Failed = res.Failed
	o.Vector = res.Metrics.Batch.VectorRows.Load()
	o.Bail = res.Metrics.Batch.VectorBailRows.Load()
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if s.Name == "stage" {
			o.Ledgers = append(o.Ledgers, s.Routing)
			o.Samples = append(o.Samples, s.Samples)
		}
		for _, a := range s.Attrs {
			if s.Name == "resolve" && a.Key == "pool" {
				o.Pools = append(o.Pools, a.Val)
			}
			if s.Name == "compile" && a.Key == "kernels" {
				o.Kernels = append(o.Kernels, a.Val)
			}
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(res.Trace.Root)
	return o
}

// vecOnOff runs the plan warm with and without its vector programs and
// returns both observations (after checking the row-only run really was
// row-only).
func vecOnOff(t *testing.T, sink *logical.Node, executors int) (on, off runObs) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Executors = executors
	opts.Trace = trace.LevelSamples
	cold, cp, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	kernels := observe(t, cold).Kernels
	run := func() runObs {
		res, err := cp.Execute(context.Background(), "")
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		return observe(t, res)
	}
	on = run()
	on.Kernels = kernels
	if cp.StripVec() == 0 {
		t.Fatalf("plan holds no vector program (kernels %v)", kernels)
	}
	off = run()
	if off.Vector != 0 || off.Bail != 0 {
		t.Fatalf("stripped plan still reports vector rows: %d (bail %d)", off.Vector, off.Bail)
	}
	return on, off
}

func requireSameRun(t *testing.T, on, off runObs) {
	t.Helper()
	on.Vector, on.Bail, on.Kernels = 0, 0, nil
	if reflect.DeepEqual(on, off) {
		return
	}
	ov, fv := reflect.ValueOf(on), reflect.ValueOf(off)
	for i := 0; i < ov.NumField(); i++ {
		if !reflect.DeepEqual(ov.Field(i).Interface(), fv.Field(i).Interface()) {
			t.Errorf("%s differs:\n  vector: %+v\n  row:    %+v", ov.Type().Field(i).Name, ov.Field(i).Interface(), fv.Field(i).Interface())
		}
	}
	t.FailNow()
}

const q6AggSrc = "lambda acc, r: acc + r['l_extendedprice'] * r['l_discount'] if (r['l_shipdate'] >= 731 and r['l_shipdate'] < 1096 and 0.05 <= r['l_discount'] <= 0.07 and r['l_quantity'] < 24) else acc"

func q6Plan(t *testing.T, csv []byte) *logical.Node {
	return chain(
		&logical.CSVSource{Data: csv, Header: true},
		&logical.AggregateOp{Agg: mustUDF(t, q6AggSrc), Comb: mustUDF(t, "lambda a, b: a + b"), Initial: pyvalue.Float(0)},
	)
}

// TestVecQ6CleanBitIdentical: on a clean lineitem file every row runs
// through the vector fold, none bails, and the revenue is the row
// fold's to the last bit at 1, 2 and 4 executors.
func TestVecQ6CleanBitIdentical(t *testing.T) {
	csv := data.TPCHLineitem(data.TPCHConfig{Rows: 20_000, Seed: 13})
	for _, ex := range []int{1, 2, 4} {
		on, off := vecOnOff(t, q6Plan(t, csv), ex)
		if len(on.Kernels) != 1 || on.Kernels[0] != "aggregate:vec" {
			t.Fatalf("executors=%d: kernels = %v, want [aggregate:vec]", ex, on.Kernels)
		}
		if on.Vector != 20_000 || on.Bail != 0 || on.Counters[0] != 20_000 {
			t.Fatalf("executors=%d: vector rows %d, bail %d, input %d; want 20000, 0, 20000", ex, on.Vector, on.Bail, on.Counters[0])
		}
		if !strings.HasPrefix(on.Result, "f64:") {
			t.Fatalf("executors=%d: result %q is not one float", ex, on.Result)
		}
		requireSameRun(t, on, off)
	}
}

// dirtyLineitem injects, into l_discount: empty cells often enough that
// the column types Option[f64] (None reaches the comparison and raises
// TypeError on the normal path — a vector bail), and unparsable cells
// (classifier rejects).
func dirtyLineitem(rows int) []byte {
	lines := strings.Split(strings.TrimSuffix(string(data.TPCHLineitem(data.TPCHConfig{Rows: rows, Seed: 5})), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		cells := strings.Split(lines[i], ",")
		switch {
		case i%9 == 4:
			cells[2] = ""
		case i%131 == 7:
			cells[2] = "n/a"
		case i%977 == 0:
			cells[0] = "99999999999999999999" // out of int64: must reject, not wrap
		}
		lines[i] = strings.Join(cells, ",")
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

func TestVecQ6DirtySameAsRowPath(t *testing.T) {
	csv := dirtyLineitem(12_000)
	for _, ex := range []int{1, 3} {
		on, off := vecOnOff(t, q6Plan(t, csv), ex)
		if on.Bail == 0 {
			t.Fatalf("executors=%d: no vector bail on a file with null discounts (counters %v)", ex, on.Counters)
		}
		if on.Counters[2] == 0 || on.Counters[3] == 0 {
			t.Fatalf("executors=%d: want classifier rejects and normal-path exceptions, got counters %v", ex, on.Counters)
		}
		requireSameRun(t, on, off)
	}
}

// TestVecPipelineSameAsRowPath drives numeric and string vector filter and
// withColumn kernels, a resolver, and a conditional vector fold, over data
// with zero divisors and nulls.
func TestVecPipelineSameAsRowPath(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("p,q,z,tag,o\n")
	for i := 0; i < 9_000; i++ {
		o := fmt.Sprint(i % 17)
		if i%5 == 3 {
			o = ""
		}
		fmt.Fprintf(&sb, "%d.%02d,%d,%d,%s,%s\n", i%400, i%100, i%13-2, i%7, []string{"x", "yy", "zzz"}[i%3], o)
	}
	sink := chain(
		&logical.CSVSource{Data: []byte(sb.String()), Header: true},
		&logical.FilterOp{UDF: mustUDF(t, "lambda r: r['q'] != 0 and r['p'] / r['q'] > -3.5")},
		&logical.WithColumnOp{Col: "u", UDF: mustUDF(t, "lambda r: 100 // r['z']")},
		&logical.ResolveOp{Exc: pyvalue.ExcZeroDivisionError, UDF: mustUDF(t, "lambda r: -1")},
		&logical.FilterOp{UDF: mustUDF(t, "lambda r: len(r['tag']) < 3")},
		&logical.WithColumnOp{Col: "w", UDF: mustUDF(t, "lambda r: r['u'] * 0.5 + r['o']")},
		&logical.FilterOp{UDF: mustUDF(t, "lambda r: r['w'] == r['w']")},
		&logical.AggregateOp{
			Agg:     mustUDF(t, "lambda acc, r: acc + r['w'] * r['p'] if r['q'] > 0 or r['u'] < 50 else acc"),
			Comb:    mustUDF(t, "lambda a, b: a + b"),
			Initial: pyvalue.Float(0),
		},
	)
	for _, ex := range []int{1, 2, 4} {
		on, off := vecOnOff(t, sink, ex)
		want := "filter:vec,withColumn(u):vec,filter:vec,withColumn(w):vec,filter:vec,aggregate:vec"
		if len(on.Kernels) != 1 || on.Kernels[0] != want {
			t.Fatalf("executors=%d: kernels = %v, want [%s]", ex, on.Kernels, want)
		}
		// Zero divisors bail into the resolver, null o into TypeError.
		if on.Bail == 0 || on.Counters[6] == 0 || on.Counters[8] == 0 {
			t.Fatalf("executors=%d: bail=%d counters=%v: want bails, resolver-resolved and failed rows", ex, on.Bail, on.Counters)
		}
		requireSameRun(t, on, off)
	}
}

// TestVecCollectSameAsRowPath checks derived vectors and refined
// selections all the way into a collect sink (the cells, not a fold of
// them), including a scalar-parameter mapColumn.
func TestVecCollectSameAsRowPath(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 9_000; i++ {
		fmt.Fprintf(&sb, "%d,%d.5\n", i%23-11, i%9-4)
	}
	sink := chain(
		&logical.CSVSource{Data: []byte(sb.String()), Header: true},
		&logical.MapColumnOp{Col: "a", UDF: mustUDF(t, "lambda x: x * x - 7 if x < 0 else 14 % x")},
		&logical.WithColumnOp{Col: "c", UDF: mustUDF(t, "lambda r: r['a'] > 3 or r['b'] < 0.0")},
		&logical.FilterOp{UDF: mustUDF(t, "lambda r: not r['c'] or r['b'] // 2.0 != -1.0")},
	)
	on, off := vecOnOff(t, sink, 2)
	if on.Bail == 0 {
		t.Fatalf("14 %% 0 never bailed (counters %v)", on.Counters)
	}
	requireSameRun(t, on, off)
}

// ---- the paper pipelines -------------------------------------------------

// planNode lowers a public-API pipeline to the logical plan the engine
// compiles, through its serialized form (the only door from a DataSet to
// internal/logical).
func planNode(t testing.TB, ds *tuplex.DataSet) *logical.Node {
	t.Helper()
	plan, err := ds.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	doc, err := plan.MarshalJSON()
	if err != nil {
		t.Fatalf("encode plan: %v", err)
	}
	p, err := spec.Decode(doc)
	if err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	built, err := p.Build()
	if err != nil {
		t.Fatalf("build plan: %v", err)
	}
	return built.Node
}

// TestVecPaperPipelinesSameAsRowPath runs Zillow, flights and weblogs —
// string UDFs, statement bodies, joins, dirty rows — compiled and stripped
// at 1 to 4 executors: results, counters, per-op ledger, pool order,
// samples and failed rows must not tell the two apart.
func TestVecPaperPipelinesSameAsRowPath(t *testing.T) {
	c := tuplex.NewContext(tuplex.WithSeed(4242))
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 4000, Seed: 77})
	var lines [][]any
	for _, l := range strings.Split(strings.TrimSuffix(string(logs), "\n"), "\n") {
		lines = append(lines, []any{l})
	}
	cases := []struct {
		name string
		ds   *tuplex.DataSet
		// vec is a kernel that must run as a vector program, bails whether
		// dirty rows must reach the replay.
		vec   string
		bails bool
	}{
		{"zillow", pipelines.Zillow(c.CSV("", tuplex.CSVData(data.Zillow(data.ZillowConfig{Rows: 6000, Seed: 123, DirtyFraction: 0.03})))),
			"withColumn(price):vec", true},
		{"flights", pipelines.Flights(pipelines.FlightsSources(c, data.Flights(data.FlightsConfig{Rows: 3000, Seed: 321}), data.Carriers(), data.Airports())),
			"mapColumn(CrsArrTime):vec", false},
		// A Parallelize source puts the log lines on the batch plane (a
		// text source runs the row path, where there is nothing to strip).
		{"weblogs", pipelines.Weblogs(c.Parallelize(lines, []string{"value"}), c.CSV("", tuplex.CSVData(bad)), pipelines.WeblogSplit),
			"mapColumn(content_size):vec", false},
	}
	for _, p := range cases {
		sink := planNode(t, p.ds)
		for ex := 1; ex <= 4; ex++ {
			on, off := vecOnOff(t, sink, ex)
			if !strings.Contains(strings.Join(on.Kernels, ";"), p.vec) {
				t.Fatalf("%s: kernels = %v, want %s among them", p.name, on.Kernels, p.vec)
			}
			if on.Vector == 0 || (p.bails && on.Bail == 0) {
				t.Fatalf("%s executors=%d: vector rows %d, bail %d", p.name, ex, on.Vector, on.Bail)
			}
			requireSameRun(t, on, off)
		}
	}
}

// BenchmarkVecZillowKernels runs Zillow's kernels — the ten derived
// columns and filters ahead of the final price filter, and that filter —
// over one full batch of clean rows, outside ingest and sink. It fails if
// any of them lost its vector program or a clean row needed the replay.
func BenchmarkVecZillowKernels(b *testing.B) {
	const n = 4096
	raw := data.Zillow(data.ZillowConfig{Rows: n, Seed: 9})
	sink := planNode(b, pipelines.Zillow(tuplex.NewContext().CSV("", tuplex.CSVData(raw))))
	_, cp, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	records := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))[1:]
	run, kernels := cp.KernelBench(records)
	if strings.Contains(kernels, ":row") || strings.Count(kernels, ":vec") != 11 {
		b.Fatalf("a Zillow kernel has no vector program: %s", kernels)
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	var vec, bail int64
	for i := 0; i < b.N; i++ {
		vec, bail = run()
	}
	b.StopTimer()
	if vec < int64(len(records)) || bail != 0 {
		b.Fatalf("vector rows %d, bail rows %d over %d clean rows; want every kernel×row vectorized and no bail", vec, bail, len(records))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(records)), "ns/row")
}

// ---- joins ---------------------------------------------------------------

// boxedRun runs the plan on the row-at-a-time reference executor.
// That plane meets a partition's classifier rejects ahead of its
// normal-path exceptions, so its exception samples are left out and its
// failed rows compare as a set (sortFailed).
func boxedRun(t *testing.T, sink *logical.Node, executors int) runObs {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Executors = executors
	opts.Trace = trace.LevelSamples
	opts.RowPlane = true
	res, _, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", opts)
	if err != nil {
		t.Fatalf("boxed plane: %v", err)
	}
	o := observe(t, res)
	o.Samples = nil
	sortFailed(o.Failed)
	return o
}

func sortFailed(f []core.FailedRow) {
	slices.SortFunc(f, func(a, b core.FailedRow) int {
		return cmp.Or(cmp.Compare(a.Input, b.Input), cmp.Compare(a.Msg, b.Msg))
	})
}

// joinProbeCSV is the probe side of the join differentials. One key value
// in five lies past the build's keys (a miss), every 11th key is empty (a
// null key) and, when dirty, a bool or garbage key now and then is a
// classifier reject.
func joinProbeCSV(n, buildN int, dirty bool) []byte {
	var sb strings.Builder
	sb.WriteString("k,v,s\n")
	for i := 0; i < n; i++ {
		k := fmt.Sprint(i * 7 % (buildN * 5 / 4))
		switch {
		case i%11 == 3:
			k = ""
		case dirty && i%89 == 0:
			k = "True"
		case dirty && i%41 == 0:
			k = fmt.Sprintf("bad-%d", i)
		}
		fmt.Fprintf(&sb, "%s,%d.%d,s%d\n", k, i%50-20, i%4, i%13)
	}
	return []byte(sb.String())
}

// joinBuildCSV is a build side with columns key, name, w, u. Each of the
// n keys appears dup times. Names run up to ~2 KiB, so one batch's taken
// names pass the 64 KiB mark of their vector's byte buffer; every 7th name
// and every 5th w is empty (null build cells). When dirty, a bool key or
// a garbage key now and then lands on the build's exception path; the
// bool one encodes as key 1, so normal probe rows with key 1 form NC/EC
// pairs.
func joinBuildCSV(cols [4]string, n, dup int, dirty bool) []byte {
	var sb strings.Builder
	sb.WriteString(strings.Join(cols[:], ",") + "\n")
	for j := 0; j < n*dup; j++ {
		k := fmt.Sprint(j % n)
		switch {
		case dirty && j%97 == 5:
			k = "True"
		case dirty && j%53 == 0:
			k = fmt.Sprintf("junk-%d", j)
		}
		name := fmt.Sprintf("n%d-%s", j, strings.Repeat(string(rune('a'+j%26)), j*37%2000))
		if j%7 == 2 {
			name = ""
		}
		w := fmt.Sprintf("%d.5", j%9-4)
		if j%5 == 1 {
			w = ""
		}
		fmt.Fprintf(&sb, "%s,%s,%s,%d.25\n", k, name, w, j%6-2)
	}
	return []byte(sb.String())
}

func joinOn(build []byte, key string, left bool) *logical.JoinOp {
	return &logical.JoinOp{Build: chain(&logical.CSVSource{Data: build, Header: true}), LeftKey: "k", RightKey: key, Left: left}
}

// TestVecAfterJoinSameAsRowAndBoxed: after a unique-key join the batch
// keeps its index space, so the kernels behind it run as vector programs.
// Each plan runs compiled, with its vector programs stripped and on the
// boxed plane at 1–4 executors, and the three must agree on result bits,
// counters, the per-op ledger, pool order and failed rows (and the first
// two on exception samples).
func TestVecAfterJoinSameAsRowAndBoxed(t *testing.T) {
	const probeN, buildN = 3000, 300
	clean, dirty := joinProbeCSV(probeN, buildN, false), joinProbeCSV(probeN, buildN, true)
	names := [4]string{"k", "name", "w", "u"}
	unique, dirtyUnique := joinBuildCSV(names, buildN, 1, false), joinBuildCSV(names, buildN, 1, true)
	fanOut := joinBuildCSV([4]string{"k2", "tag", "w2", "u2"}, buildN/4, 3, false)
	third := joinBuildCSV([4]string{"k3", "name3", "w3", "u3"}, buildN, 1, false)
	src := func(csv []byte) logical.Op { return &logical.CSVSource{Data: csv, Header: true} }
	udf := func(s string) *logical.UDFSpec { return mustUDF(t, s) }
	cases := []struct {
		name string
		sink *logical.Node
		// vec must be among the probe stage's vector kernels.
		vec string
	}{
		// w is None on some matches: the withColumn raises TypeError there
		// (a bail, replayed and pooled after the join).
		{"inner", chain(src(clean), joinOn(unique, "k", false),
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda r: r['v'] * 2.0 + r['w']")},
			&logical.FilterOp{UDF: udf("lambda r: r['z'] > -30.0")},
			&logical.MapColumnOp{Col: "u", UDF: udf("lambda x: x * 3.0 - 1.0")}),
			"mapColumn(u):vec"},
		{"left-miss", chain(src(clean), joinOn(unique, "k", true),
			&logical.WithColumnOp{Col: "miss", UDF: udf("lambda r: r['u'] is None")},
			&logical.FilterOp{UDF: udf("lambda r: r['v'] != 0.0")}),
			"withColumn(miss):vec"},
		{"nc-ec", chain(src(dirty), joinOn(dirtyUnique, "k", true),
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda r: r['v'] / r['u']")}),
			"withColumn(z):vec"},
		// Vector kernels run up to the fan-out join and not after it.
		{"unique-fanout-unique", chain(src(clean), joinOn(unique, "k", false),
			&logical.WithColumnOp{Col: "y", UDF: udf("lambda r: r['u'] * 2.0")},
			&logical.JoinOp{Build: chain(src(fanOut)), LeftKey: "k", RightKey: "k2"},
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda r: r['u'] + r['u2']")},
			&logical.JoinOp{Build: chain(src(third)), LeftKey: "k", RightKey: "k3", Left: true},
			&logical.FilterOp{UDF: udf("lambda r: r['u3'] is None or r['u3'] > 0.0")}),
			"withColumn(y):vec"},
		{"fold", chain(src(clean), joinOn(unique, "k", false),
			&logical.AggregateOp{
				Agg:     udf("lambda acc, r: acc + r['v'] * r['u'] if r['u'] > -1.0 else acc"),
				Comb:    udf("lambda a, b: a + b"),
				Initial: pyvalue.Float(0),
			}),
			"aggregate:vec"},
	}
	for _, tc := range cases {
		for ex := 1; ex <= 4; ex++ {
			on, off := vecOnOff(t, tc.sink, ex)
			if !strings.Contains(strings.Join(on.Kernels, ";"), tc.vec) {
				t.Fatalf("%s: kernels = %v, want %s among them", tc.name, on.Kernels, tc.vec)
			}
			// Every vector kernel of these plans sits after a unique join.
			if on.Vector == 0 {
				t.Fatalf("%s executors=%d: no row ran through a vector program after the join", tc.name, ex)
			}
			requireSameRun(t, on, off)
			off.Samples = nil
			sortFailed(off.Failed)
			requireSameRun(t, boxedRun(t, tc.sink, ex), off)
		}
	}
}
