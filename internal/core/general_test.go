package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/trace"
)

// The general plan claims to change nothing but speed: a pool resolved
// in batches through it must be indistinguishable from the same pool
// resolved row by row on the fallback — result rows and their order,
// failed rows, warnings, counters, every per-op ledger entry and the
// exception samples — except for which of the two paths a row is counted
// on.

// generalObs is a run's observation plus what only these tests compare.
type generalObs struct {
	runObs
	Warnings []string
	batched  int64
}

func observeGeneral(t *testing.T, res *core.Result) generalObs {
	t.Helper()
	o := generalObs{runObs: observe(t, res), Warnings: res.Warnings}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		for _, a := range s.Attrs {
			if s.Name == "resolve" && a.Key == "batched" {
				n, _ := strconv.ParseInt(a.Val, 10, 64)
				o.batched += n
			}
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(res.Trace.Root)
	return o
}

// Counters indexes (runObs.Counters).
const (
	cGeneralResolved  = 4
	cFallbackResolved = 5
)

// onFallback returns o with every row the general path counted moved to
// the fallback's counters: the run-wide resolved counter, each ledger
// entry's entering and resolved counts, and each sample's outcome.
func onFallback(o generalObs) generalObs {
	o.Counters[cFallbackResolved] += o.Counters[cGeneralResolved]
	o.Counters[cGeneralResolved] = 0
	ledgers := make([][]trace.OpRouting, len(o.Ledgers))
	for i, l := range o.Ledgers {
		ledgers[i] = append([]trace.OpRouting(nil), l...)
		for j := range ledgers[i] {
			r := &ledgers[i][j]
			r.FallbackIn, r.GeneralIn = r.FallbackIn+r.GeneralIn, 0
			r.FallbackResolved, r.GeneralResolved = r.FallbackResolved+r.GeneralResolved, 0
		}
	}
	o.Ledgers = ledgers
	samples := make([][]trace.ExcSample, len(o.Samples))
	for i, ss := range o.Samples {
		samples[i] = append([]trace.ExcSample(nil), ss...)
		for j := range samples[i] {
			if samples[i][j].Outcome == "general" {
				samples[i][j].Outcome = "fallback"
			}
		}
	}
	o.Samples = samples
	return o
}

func requireSameGeneral(t *testing.T, what string, batched, fallback generalObs) {
	t.Helper()
	if reflect.DeepEqual(batched, fallback) {
		return
	}
	bv, pv := reflect.ValueOf(batched.runObs), reflect.ValueOf(fallback.runObs)
	for i := 0; i < bv.NumField(); i++ {
		if !reflect.DeepEqual(bv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Errorf("%s: %s differs:\n  batched:  %+v\n  fallback: %+v", what, bv.Type().Field(i).Name, bv.Field(i).Interface(), pv.Field(i).Interface())
		}
	}
	if !reflect.DeepEqual(batched.Warnings, fallback.Warnings) {
		t.Errorf("%s: warnings differ:\n  batched:  %q\n  fallback: %q", what, batched.Warnings, fallback.Warnings)
	}
	t.FailNow()
}

// requireFallbackOnly fails unless the run counted nothing on the
// general path.
func requireFallbackOnly(t *testing.T, what string, o generalObs) {
	t.Helper()
	if o.batched != 0 || o.Counters[cGeneralResolved] != 0 {
		t.Fatalf("%s: the fallback-only run batched %d rows and general-resolved %d", what, o.batched, o.Counters[cGeneralResolved])
	}
	for _, l := range o.Ledgers {
		for _, r := range l {
			if r.GeneralIn != 0 || r.GeneralResolved != 0 {
				t.Fatalf("%s: the fallback-only run's ledger counts general rows: %+v", what, r)
			}
		}
	}
}

// generalOnOff compiles the plan cold, then runs it warm with every pool
// resolved on the fallback and with every pool batched through the
// general plan — as compiled, and with its vector programs stripped —
// and requires each pair to agree once the batched run's general counts
// are moved to the fallback. It returns the rows the batched runs
// resolved.
func generalOnOff(t *testing.T, name string, sink *logical.Node, executors int) int64 {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Executors = executors
	opts.Trace = trace.LevelSamples
	_, cp, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	run := func(batched bool) generalObs {
		if batched {
			cp.ResolveBatched()
		} else {
			cp.ResolveFallback()
		}
		res, err := cp.Execute(context.Background(), "")
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		return observeGeneral(t, res)
	}
	what := fmt.Sprintf("%s executors=%d", name, executors)
	fallback, batched := run(false), run(true)
	requireFallbackOnly(t, what, fallback)
	n := batched.batched
	if got := batched.Counters[cGeneralResolved]; got > n {
		t.Fatalf("%s: %d rows general-resolved, but only %d batched", what, got, n)
	}
	batched.batched = 0
	requireSameGeneral(t, what, onFallback(batched), fallback)

	cp.StripVec()
	stripped, strippedFallback := run(true), run(false)
	if stripped.Vector != 0 || stripped.batched != n {
		t.Fatalf("%s stripped: vector rows %d, batched %d (want 0, %d)", what, stripped.Vector, stripped.batched, n)
	}
	requireFallbackOnly(t, what+" stripped", strippedFallback)
	stripped.batched = 0
	requireSameGeneral(t, what+" stripped", onFallback(stripped), strippedFallback)
	if left := cp.StripVec(); left != 0 {
		t.Fatalf("%s: %d vector programs survived StripVec", what, left)
	}
	return n
}

// resolverCSV has a float column b that is empty in one row in 60 of
// the sample (normal type f64, general Option[f64]) and in one in 7 past
// it, and 0.0 in one row in 11: the general plan takes the empty-b rows,
// and rows that divide by zero raise in it and go to the fallback, to a
// resolver or an ignore.
func resolverCSV() []byte {
	var sb strings.Builder
	sb.WriteString("a,b,s\n")
	for i := range 4000 {
		b := fmt.Sprintf("%d.5", i%13-6)
		switch {
		case i%60 == 7 || i > 1000 && i%7 == 3:
			b = ""
		case i%11 == 5:
			b = "0.0"
		}
		fmt.Fprintf(&sb, "%d,%s,s%d\n", i, b, i%9)
	}
	return []byte(sb.String())
}

// TestGeneralPlanSameAsFallback runs flights, dirty Zillow, 311, a CSV
// resolver/ignore pipeline, an int column holding strings and a left
// join whose build side has general rows (probes hitting them go to the
// fallback; null probe keys, Option-typed in general, batch) at 1–4
// executors, on the fallback only and batched, compiled and stripped.
func TestGeneralPlanSameAsFallback(t *testing.T) {
	c := tuplex.NewContext()
	udf := func(s string) *logical.UDFSpec { return mustUDF(t, s) }
	src := func(csv []byte) logical.Op { return &logical.CSVSource{Data: csv, Header: true} }
	const probeN, buildN = 3000, 300
	names := [4]string{"k", "name", "w", "u"}
	cases := []struct {
		name string
		sink *logical.Node
		// batches says the pool must reach the general plan.
		batches bool
	}{
		{"flights", planNode(t, pipelines.Flights(pipelines.FlightsSources(c,
			data.Flights(data.FlightsConfig{Rows: 20000, Seed: 321}), data.Carriers(), data.Airports()))), true},
		{"zillow", planNode(t, pipelines.Zillow(c.CSV("", tuplex.CSVData(
			data.Zillow(data.ZillowConfig{Rows: 20000, Seed: 5, DirtyFraction: 0.01}))))), false},
		{"311", planNode(t, pipelines.ThreeOneOne(c.CSV("", tuplex.CSVData(
			data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 20000, Seed: 6}))))), false},
		{"resolve-ignore", chain(src(resolverCSV()),
			&logical.WithColumnOp{Col: "q", UDF: udf("lambda x: 10.0 / x['b'] if x['b'] is not None else 0.0")},
			&logical.ResolveOp{Exc: pyvalue.ExcZeroDivisionError, UDF: udf("lambda x: -1.0")},
			&logical.WithColumnOp{Col: "r", UDF: udf("lambda x: x['q'] + len(x['s']) / (x['a'] % 4)")},
			&logical.IgnoreOp{Exc: pyvalue.ExcZeroDivisionError},
			&logical.RenameOp{Old: "s", New: "t"},
			&logical.FilterOp{UDF: udf("lambda x: x['a'] % 5 != 2")},
			&logical.MapColumnOp{Col: "t", UDF: udf("lambda t: t.upper()")}), true},
		{"mixed", chain(src(mixedCSV()),
			&logical.FilterOp{UDF: udf("lambda x: x['s'] != 'drop'")},
			&logical.WithColumnOp{Col: "l", UDF: udf("lambda x: [x['a'], 7]")},
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda x: x['b'] * 0.0")}), false},
		{"join-general-build", chain(src(joinProbeCSV(probeN, buildN, true)),
			joinOn(joinBuildCSV(names, buildN, 1, true), "k", true),
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda r: r['v'] / r['u'] if r['u'] is not None else -r['v']")}), true},
		// Empty-b rows whose a has three build matches fan out in the
		// general plan too.
		{"fanout-join", chain(src(resolverCSV()),
			&logical.JoinOp{Build: chain(src(joinBuildCSV([4]string{"k2", "tag", "w2", "u2"}, 75, 3, false))), LeftKey: "a", RightKey: "k2", Left: true},
			&logical.WithColumnOp{Col: "z", UDF: udf("lambda r: r['u2'] * 2.0 if r['u2'] is not None else r['b']")},
			&logical.FilterOp{UDF: udf("lambda r: r['a'] % 9 != 4")}), true},
	}
	for _, tc := range cases {
		for ex := 1; ex <= 4; ex++ {
			n := generalOnOff(t, tc.name, tc.sink, ex)
			if tc.batches && n == 0 {
				t.Fatalf("%s executors=%d: no pool row went through the general plan", tc.name, ex)
			}
			if ex == 1 {
				t.Logf("%s: %d pool rows batched", tc.name, n)
			}
		}
	}
}

// mixedCSV is collectdiff's: 6000 rows of int a, float b and string s;
// rows 2000–2399 have a non-integer a (the general parse turns them away:
// a string in an int column) and rows 3000–3399 are filtered out.
func mixedCSV() []byte {
	var sb strings.Builder
	sb.WriteString("a,b,s\n")
	for i := range 6000 {
		a := fmt.Sprint([]int64{int64(i % 300), 1<<40 + int64(i), -int64(i)}[i%3])
		if i >= 2000 && i < 2400 {
			a = fmt.Sprintf("x%d", i)
		}
		s := fmt.Sprintf("row%d", i%17)
		if i >= 3000 && i < 3400 {
			s = "drop"
		}
		fmt.Fprintf(&sb, "%s,%d.5,%s\n", a, i%11-(i%3)*10, s)
	}
	return []byte(sb.String())
}

// driftFiles writes a CSV whose sample prefix holds a few empty b cells
// (b: f64 normal, Option[f64] general) and returns its path and a
// function that rewrites it with the same prefix and, past it, an empty
// b in one row in five — a pool the general plan takes.
func driftFiles(t *testing.T) (path string, drift func()) {
	path, write := driftWriter(t)
	write(1000, 1<<30, 0)
	return path, func() { write(6000, 5, 0) }
}

// driftWriter returns driftFiles' path and writer: rows rows, an empty b
// in one row in every from row 1000 on and, when boolEvery > 0, a True b
// in one row in boolEvery from row 1000 on — a cell the general parse
// rejects, so its row goes to the fallback.
func driftWriter(t *testing.T) (path string, write func(rows, every, boolEvery int)) {
	path = filepath.Join(t.TempDir(), "in.csv")
	return path, func(rows, every, boolEvery int) {
		var sb strings.Builder
		sb.WriteString("a,b,s\n")
		for i := range rows {
			b := fmt.Sprintf("%d.25", i%17)
			switch {
			case i%50 == 3 || i >= 1000 && i%every == 1:
				b = ""
			case i >= 1000 && boolEvery > 0 && i%boolEvery == 2:
				b = "True"
			}
			fmt.Fprintf(&sb, "%d,%s,s%d\n", i, b, i%7)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func driftPlan(t *testing.T, path string) *logical.Node {
	return chain(&logical.CSVSource{Path: path, Header: true},
		&logical.WithColumnOp{Col: "c", UDF: mustUDF(t, "lambda x: x['b'] * 2.0 if x['b'] else -1.0")},
		&logical.FilterOp{UDF: mustUDF(t, "lambda x: x['a'] % 3 != 1")},
		&logical.MapColumnOp{Col: "s", UDF: mustUDF(t, "lambda s: s.upper()")})
}

// TestGeneralPlanConcurrentRuns: two concurrent Executes of one cached
// plan meet pools for the first time. The general plan is built once,
// shared, and both results equal a serial run's (run under -race). In
// the second input, rows also reach the fallback, where the first UDF —
// a whole-row dict UDF that reads one of the three columns — runs on
// every run's own interpreters over the plan's shared operators.
func TestGeneralPlanConcurrentRuns(t *testing.T) {
	for _, boolEvery := range []int{0, 13} {
		t.Run(fmt.Sprintf("boolEvery=%d", boolEvery), func(t *testing.T) {
			testGeneralPlanConcurrentRuns(t, boolEvery)
		})
	}
}

func testGeneralPlanConcurrentRuns(t *testing.T, boolEvery int) {
	path, write := driftWriter(t)
	write(1000, 1<<30, 0)
	opts := core.DefaultOptions()
	opts.Executors = 2
	opts.Trace = trace.LevelRows
	before := core.GeneralPlans()
	_, cp, err := core.CompileAndExecute(context.Background(), driftPlan(t, path), core.SinkCollect, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := core.GeneralPlans() - before; n != 0 {
		t.Fatalf("the sample-sized input built %d general plans; its pool is below the cut", n)
	}
	write(6000, 5, boolEvery)
	var wg sync.WaitGroup
	obs := make([]generalObs, 2)
	errs := make([]error, 2)
	for i := range obs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cp.Execute(context.Background(), "")
			if errs[i] = err; err == nil {
				obs[i] = observeGeneral(t, res)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := cp.Execute(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	serial := observeGeneral(t, res)
	if serial.batched == 0 {
		t.Fatal("the drifted input's pool did not reach the general plan")
	}
	if fallback := serial.Counters[cFallbackResolved] > 0; fallback != (boolEvery > 0) {
		t.Fatalf("fallback-resolved rows: %d, want them only with True cells", serial.Counters[cFallbackResolved])
	}
	if n := core.GeneralPlans() - before; n != 1 {
		t.Fatalf("built %d general plans, want 1", n)
	}
	for i, o := range obs {
		requireSameGeneral(t, fmt.Sprintf("concurrent run %d", i), o, serial)
	}
}

// resolveCancelCtx is canceled by the cancellation check number skip+1
// (counting from 0) made from a function whose name holds in, so the run
// stops mid-pool.
type resolveCancelCtx struct {
	context.Context
	in     string
	skip   int
	checks int
	mu     sync.Mutex
	done   chan struct{}
}

func newResolveCancelCtx(in string, skip int) *resolveCancelCtx {
	return &resolveCancelCtx{Context: context.Background(), in: in, skip: skip, done: make(chan struct{})}
}

func (c *resolveCancelCtx) Done() <-chan struct{} {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		// The engine's check is canceled(); the frame after it is the
		// function that made the check.
		if strings.HasSuffix(f.Function, ").canceled") {
			if f, _ = frames.Next(); strings.Contains(f.Function, c.in) {
				c.mu.Lock()
				if c.checks == c.skip {
					close(c.done)
				}
				c.checks++
				c.mu.Unlock()
			}
			break
		}
		if !more {
			break
		}
	}
	return c.done
}

func (c *resolveCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// requireCanceledClean runs the compiled plan under ctx and requires the
// run to stop with a cancellation raised where ctx cancels, leaving no
// goroutine behind.
func requireCanceledClean(t *testing.T, cp *core.CompiledPlan, ctx *resolveCancelCtx) {
	t.Helper()
	base := runtime.NumGoroutine()
	_, err := cp.Execute(ctx, "")
	if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want a cancellation from inside resolve", err)
	}
	select {
	case <-ctx.done:
	default:
		ctx.mu.Lock()
		defer ctx.mu.Unlock()
		t.Fatalf("the run made %d cancellation checks in %s, want more than %d", ctx.checks, ctx.in, ctx.skip)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the canceled run, %d before", n, base)
	}
}

// TestGeneralPlanCancel cancels a run inside the general pass: it
// returns context.Canceled and leaves no goroutine behind.
func TestGeneralPlanCancel(t *testing.T) {
	path, drift := driftFiles(t)
	drift()
	opts := core.DefaultOptions()
	opts.Executors = 3
	_, cp, err := core.CompileAndExecute(context.Background(), driftPlan(t, path), core.SinkCollect, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	requireCanceledClean(t, cp, newResolveCancelCtx("resolveGeneral", 0))
}

// TestFallbackCancel cancels a fallback-only resolve of mixedCSV's 400
// string-in-int rows at the loop's second cancellation check, 256 rows
// in: it returns context.Canceled and leaves no goroutine behind.
func TestFallbackCancel(t *testing.T) {
	sink := chain(&logical.CSVSource{Data: mixedCSV(), Header: true},
		&logical.WithColumnOp{Col: "z", UDF: mustUDF(t, "lambda x: x['b'] * 2.0")})
	opts := core.DefaultOptions()
	opts.Executors = 3
	res, cp, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if pool := res.Metrics.Counters.ClassifierRejects.Load(); pool != 400 {
		t.Fatalf("pool holds %d rows, want mixedCSV's 400", pool)
	}
	cp.ResolveFallback()
	requireCanceledClean(t, cp, newResolveCancelCtx("resolveExceptions", 1))
}

// TestRejectCausesReconcile: the source entry of flights' probe stage
// says why each classifier reject left the normal case — empty delay
// cells in columns sampled f64 (the cancelled flights) and values in the
// diversion columns sampled Null — and the causes of all stages sum to
// the classifier rejects.
func TestRejectCausesReconcile(t *testing.T) {
	const rows = 50000
	c := tuplex.NewContext()
	sink := planNode(t, pipelines.Flights(pipelines.FlightsSources(c,
		data.Flights(data.FlightsConfig{Rows: rows, Seed: 7}), data.Carriers(), data.Airports())))
	opts := core.DefaultOptions()
	opts.Trace = trace.LevelRows
	res, _, err := core.CompileAndExecute(context.Background(), sink, core.SinkCollect, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	var total, emptyF64, nullValue int64
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if len(s.Routing) > 0 {
			for why, n := range s.Routing[0].Rejects {
				total += n
				switch {
				case strings.HasSuffix(why, " f64←empty"):
					emptyF64 += n
				case strings.Contains(why, " null←") && !strings.HasSuffix(why, "←empty"):
					nullValue += n
				}
			}
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(res.Trace.Root)
	rejects := res.Metrics.Counters.ClassifierRejects.Load()
	if total != rejects || rejects == 0 {
		t.Fatalf("reject causes sum to %d, classifier rejects %d", total, rejects)
	}
	// The datagen cancels 0.6% of flights and diverts 2%; at 150k rows
	// that is about 900 and 2 900.
	if emptyF64 < rows*3/1000 || emptyF64 > rows*9/1000 || nullValue < rows*15/1000 || nullValue > rows*25/1000 {
		t.Fatalf("f64←empty %d, null←value %d over %d rows; want about 0.6%% and 1.9%%", emptyF64, nullValue, rows)
	}
}
