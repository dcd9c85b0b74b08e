package tuplex

import (
	"fmt"
	"strings"
	"testing"
)

func collect(t *testing.T, d *DataSet) *Result {
	t.Helper()
	res, err := d.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return res
}

func TestQuickstartMapColumn(t *testing.T) {
	csv := "code,distance\nAA,100\nBB,250\nCC,40\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("distance", UDF("lambda m: m * 1.609")))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := res.Rows[0][1]; got != 160.9 {
		t.Fatalf("row0 distance = %v", got)
	}
	if res.Metrics.Rows.Normal != 3 {
		t.Fatalf("normal rows = %d (all rows should take the fast path)", res.Metrics.Rows.Normal)
	}
}

func TestWithColumnAndFilter(t *testing.T) {
	csv := "name,price\na,5\nb,50\nc,500\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		WithColumn("expensive", UDF("lambda x: x['price'] > 10")).
		Filter(UDF("lambda x: x['expensive']")))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[2] != "expensive" {
		t.Fatalf("cols = %v", res.Columns)
	}
}

func TestDirtyRowsGoToExceptionPathAndResolve(t *testing.T) {
	// Row with a non-numeric distance: classifier reject; row with None:
	// normal path raises TypeError; both recovered per the §3 example.
	csv := "code,distance\nAA,100\nBB,bad\nCC,\nDD,50\n"
	c := NewContext(WithSampleSize(2)) // sample sees only clean int rows
	ds := c.CSV("", CSVData([]byte(csv))).
		MapColumn("distance", UDF("lambda m: m * 1.609")).
		Resolve(TypeError, UDF("lambda m: 0.0")).
		Resolve(ValueError, UDF("lambda m: -1.0"))
	res := collect(t, ds)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v (failed: %v)", res.Rows, res.Failed)
	}
	// Order preserved; resolved rows merged back in position.
	if res.Rows[0][1] != 160.9 {
		t.Fatalf("row0 = %v", res.Rows[0])
	}
	if res.Rows[2][1] != 0.0 { // None -> TypeError -> 0.0
		t.Fatalf("row2 = %v", res.Rows[2])
	}
	if res.Rows[3][1] != 80.45 {
		t.Fatalf("row3 = %v", res.Rows[3])
	}
	// The 'bad' row: general parse yields the string "bad"; m * 1.609 is
	// a TypeError in Python, so the TypeError resolver catches it.
	if res.Rows[1][1] != 0.0 {
		t.Fatalf("row1 = %v", res.Rows[1])
	}
	if res.Metrics.Rows.ResolverResolved == 0 {
		t.Fatal("expected resolver activity")
	}
}

func TestFailedRowsReportedNotRaised(t *testing.T) {
	csv := "v\n1\n2\nboom\n4\n"
	c := NewContext(WithSampleSize(2))
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m + 2")))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(3) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("failed = %v", res.Failed)
	}
	if res.Failed[0].Exc != TypeError {
		t.Fatalf("failed exc = %v", res.Failed[0].Exc)
	}
	if !strings.Contains(res.Failed[0].Input, "boom") {
		t.Fatalf("failed input = %q", res.Failed[0].Input)
	}
}

func TestIgnoreDropsRows(t *testing.T) {
	csv := "v\n1\n2\nboom\n4\n"
	c := NewContext(WithSampleSize(2))
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m + 2")).
		Ignore(TypeError))
	if len(res.Rows) != 3 || len(res.Failed) != 0 {
		t.Fatalf("rows=%v failed=%v", res.Rows, res.Failed)
	}
	if res.Metrics.Rows.Ignored != 1 {
		t.Fatalf("ignored = %d", res.Metrics.Rows.Ignored)
	}
}

func TestInnerJoin(t *testing.T) {
	flights := "code,dist\nAA,100\nBB,200\nZZ,300\n"
	carriers := "code,name\nAA,Alpha Air\nBB,Beta Lines\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(flights))).
		Join(c.CSV("", CSVData([]byte(carriers))), "code", "code"))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Output: probe columns + build columns minus build key.
	want := []string{"code", "dist", "name"}
	if fmt.Sprint(res.Columns) != fmt.Sprint(want) {
		t.Fatalf("cols = %v", res.Columns)
	}
	if res.Rows[0][2] != "Alpha Air" {
		t.Fatalf("row0 = %v", res.Rows[0])
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	flights := "code,dist\nAA,100\nZZ,300\n"
	carriers := "code,name\nAA,Alpha Air\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(flights))).
		LeftJoin(c.CSV("", CSVData([]byte(carriers))), "code", "code"))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][2] != nil {
		t.Fatalf("unmatched row should pad nil, got %v", res.Rows[1])
	}
}

func TestJoinMultiMatch(t *testing.T) {
	left := "k,v\na,1\nb,2\n"
	right := "k,w\na,10\na,11\nb,20\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(left))).
		Join(c.CSV("", CSVData([]byte(right))), "k", "k"))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinPrefixes(t *testing.T) {
	left := "iata,dep\nBOS,5\n"
	right := "iata,city\nBOS,Boston\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(left))).
		LeftJoinPrefixed(c.CSV("", CSVData([]byte(right))), "iata", "iata", "", "Origin"))
	want := []string{"iata", "dep", "Origincity"}
	if fmt.Sprint(res.Columns) != fmt.Sprint(want) {
		t.Fatalf("cols = %v", res.Columns)
	}
}

func TestAggregateSum(t *testing.T) {
	csv := "v\n1\n2\n3\n4\n5\n"
	c := NewContext()
	acc, res, err := c.CSV("", CSVData([]byte(csv))).
		Aggregate(UDF("lambda acc, r: acc + r"), UDF("lambda a, b: a + b"), int64(0))
	if err != nil {
		t.Fatalf("aggregate: %v (res=%v)", err, res)
	}
	if acc != int64(15) {
		t.Fatalf("acc = %v", acc)
	}
}

func TestAggregateWithDirtyRows(t *testing.T) {
	csv := "v\n1\n2\nbad\n4\n"
	c := NewContext(WithSampleSize(2))
	acc, _, err := c.CSV("", CSVData([]byte(csv))).
		Aggregate(UDF("lambda acc, r: acc + r"), UDF("lambda a, b: a + b"), int64(0))
	if err != nil {
		t.Fatal(err)
	}
	// The 'bad' row fails on every path (int + str) and is reported, the
	// rest still aggregate.
	if acc != int64(7) {
		t.Fatalf("acc = %v", acc)
	}
}

func TestAggregateRowAccess(t *testing.T) {
	csv := "qty,price\n2,10.0\n3,1.5\n"
	c := NewContext()
	acc, _, err := c.CSV("", CSVData([]byte(csv))).
		Aggregate(UDF("lambda acc, r: acc + r['qty'] * r['price']"),
			UDF("lambda a, b: a + b"), 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 24.5 {
		t.Fatalf("acc = %v", acc)
	}
}

func TestUnique(t *testing.T) {
	csv := "zip\n02134\n10001\n02134\n10001\n94105\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).Unique())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTextSourceAndMapToDict(t *testing.T) {
	text := "alpha one\nbeta two\n"
	c := NewContext()
	res := collect(t, c.Text("", TextData([]byte(text))).
		Map(UDF("lambda x: {'first': x.split(' ')[0], 'second': x.split(' ')[1]}")))
	if fmt.Sprint(res.Columns) != fmt.Sprint([]string{"first", "second"}) {
		t.Fatalf("cols = %v", res.Columns)
	}
	if res.Rows[1][0] != "beta" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectAndRename(t *testing.T) {
	csv := "a,b,c\n1,2,3\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		RenameColumn("b", "bee").
		SelectColumns("c", "bee"))
	if fmt.Sprint(res.Columns) != fmt.Sprint([]string{"c", "bee"}) {
		t.Fatalf("cols = %v", res.Columns)
	}
	if res.Rows[0][0] != int64(3) || res.Rows[0][1] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParallelExecutionMatchesSerial(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("v,w\n")
	for i := range 5000 {
		fmt.Fprintf(&sb, "%d,x%d\n", i, i%7)
	}
	pipeline := func(c *Context) *Result {
		return collect(t, c.CSV("", CSVData([]byte(sb.String()))).
			WithColumn("double", UDF("lambda x: x['v'] * 2")).
			Filter(UDF("lambda x: x['double'] % 3 == 0")))
	}
	serial := pipeline(NewContext(WithExecutors(1)))
	// ~39 KB of input sits under the 64 KiB chunk floor; a 4 KiB cap
	// cuts it into about ten chunks for the eight executors.
	parallel := pipeline(NewContext(WithExecutors(8), WithChunkSize(4<<10)))
	tasks := 0
	for _, ex := range findSpans(parallel.Trace.Root, "execute") {
		tasks += len(ex.Tasks)
	}
	if tasks < 2 {
		t.Fatalf("parallel run executed %d task(s), want >= 2", tasks)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if fmt.Sprint(serial.Rows[i]) != fmt.Sprint(parallel.Rows[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, serial.Rows[i], parallel.Rows[i])
		}
	}
}

func TestToCSVRoundTrip(t *testing.T) {
	csv := "name,price\nwidget,5\ngadget,50\n"
	c := NewContext()
	res, err := c.CSV("", CSVData([]byte(csv))).
		MapColumn("price", UDF("lambda p: p * 2")).
		ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	want := "name,price\nwidget,10\ngadget,100\n"
	if string(res.CSV) != want {
		t.Fatalf("csv = %q, want %q", res.CSV, want)
	}
}

func TestParallelize(t *testing.T) {
	c := NewContext()
	res := collect(t, c.Parallelize([][]any{
		{int64(1), "a"},
		{int64(2), "b"},
		{"oops", "c"}, // non-conforming row -> exception path
	}, []string{"n", "s"}).
		WithColumn("n2", UDF("lambda x: x['n'] + 10")))
	if len(res.Rows) != 2 || len(res.Failed) != 1 {
		t.Fatalf("rows=%v failed=%v", res.Rows, res.Failed)
	}
	if res.Rows[1][2] != int64(12) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestChainedStagesViaUnique(t *testing.T) {
	csv := "v\n3\n1\n3\n2\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m % 2")).
		Unique().
		MapColumn("v", UDF("lambda m: m + 100")))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(101) || res.Rows[1][0] != int64(100) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNullHeavyColumnPrunesBranch(t *testing.T) {
	// A column that is always empty types as Null; `if x else` folds.
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := range 50 {
		fmt.Fprintf(&sb, "%d,\n", i)
	}
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(sb.String()))).
		WithColumn("out", UDF("lambda x: x['b'] * 1.609 if x['b'] else 0.0")))
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][2] != 0.0 {
		t.Fatalf("row0 = %v", res.Rows[0])
	}
	if res.Metrics.Rows.Normal != 50 {
		t.Fatalf("normal = %d; null branch should stay on fast path",
			res.Metrics.Rows.Normal)
	}
}

func TestOptionColumnMixedNulls(t *testing.T) {
	// ~50% nulls: polymorphic Option type with runtime checks (§4.2).
	var sb strings.Builder
	sb.WriteString("v\n")
	for i := range 40 {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "%d\n", i)
		} else {
			sb.WriteString("\n")
		}
	}
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(sb.String()))).
		WithColumn("out", UDF("lambda x: x['v'] * 2 if x['v'] else -1")))
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d (failed %v)", len(res.Rows), res.Failed)
	}
	// v=0 is falsy in Python, so row 0 also takes the else arm.
	if res.Rows[0][1] != int64(-1) || res.Rows[1][1] != int64(-1) || res.Rows[2][1] != int64(4) {
		t.Fatalf("rows = %v", res.Rows[:3])
	}
	if res.Metrics.Rows.Normal != 40 {
		t.Fatalf("normal = %d; option checks should keep rows on fast path",
			res.Metrics.Rows.Normal)
	}
}

func TestGlobalsInUDF(t *testing.T) {
	c := NewContext(WithSeed(7))
	res := collect(t, c.Text("", TextData([]byte("x\ny\n"))).
		Map(UDF("lambda x: ''.join([random_choice(LETTERS) for t in range(5)])").
			WithGlobal("LETTERS", "AB")))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	s := res.Rows[0][0].(string)
	if len(s) != 5 || strings.Trim(s, "AB") != "" {
		t.Fatalf("row0 = %q", s)
	}
}

func TestRegexUDF(t *testing.T) {
	text := "1.2.3.4 GET /index.html\n5.6.7.8 POST /submit\nmalformed\n"
	c := NewContext(WithSampleSize(2))
	res := collect(t, c.Text("", TextData([]byte(text))).
		Map(UDF(`def parse(x):
    m = re_search('^(\S+) (\S+) (\S+)', x)
    if m:
        return {'ip': m[1], 'method': m[2], 'path': m[3]}
    return {'ip': '', 'method': '', 'path': ''}
`)))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v failed=%v", res.Rows, res.Failed)
	}
	if res.Rows[0][0] != "1.2.3.4" || res.Rows[2][0] != "" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCollectAfterPipelineError(t *testing.T) {
	c := NewContext()
	_, err := c.CSV("", CSVData([]byte("a\n1\n"))).
		MapColumn("a", UDF("lambda x:")). // syntax error
		Collect()
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestMissingColumnError(t *testing.T) {
	c := NewContext()
	_, err := c.CSV("", CSVData([]byte("a\n1\n"))).
		MapColumn("zzz", UDF("lambda x: x")).
		Collect()
	if err == nil {
		t.Fatal("expected missing-column error")
	}
}

func TestProjectionPushdownParsesOnlyNeededColumns(t *testing.T) {
	// 20 columns, only two read; the dirty cell lives in an unread
	// column and must not cause exceptions (it is never parsed).
	var sb strings.Builder
	cols := make([]string, 20)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	sb.WriteString(strings.Join(cols, ","))
	sb.WriteString("\n")
	for i := range 30 {
		row := make([]string, 20)
		for j := range row {
			row[j] = fmt.Sprint(i + j)
		}
		if i == 20 {
			row[7] = "DIRTY" // unread column
		}
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(sb.String()))).
		WithColumn("sum", UDF("lambda x: x['c1'] + x['c2']")).
		SelectColumns("sum"))
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Metrics.Rows.ClassifierRejects != 0 {
		t.Fatal("dirty cell in an unread column caused a classifier reject; projection pushdown broken")
	}
	// Without projection pushdown, the dirty row must take the slow path.
	c2 := NewContext(WithLogicalOptimizations(false, false, false))
	res2 := collect(t, c2.CSV("", CSVData([]byte(sb.String()))).
		WithColumn("sum", UDF("lambda x: x['c1'] + x['c2']")).
		SelectColumns("sum"))
	if len(res2.Rows) != 30 {
		t.Fatalf("rows = %d", len(res2.Rows))
	}
	if res2.Metrics.Rows.ClassifierRejects != 1 {
		t.Fatalf("expected 1 classifier reject without pushdown, got %d",
			res2.Metrics.Rows.ClassifierRejects)
	}
}

func TestStageFusionAblationSameResults(t *testing.T) {
	csv := "v\n1\n2\n3\n4\n"
	run := func(opts ...Option) *Result {
		c := NewContext(opts...)
		return collect(t, c.CSV("", CSVData([]byte(csv))).
			MapColumn("v", UDF("lambda m: m + 1")).
			WithColumn("w", UDF("lambda x: x['v'] * 2")).
			Filter(UDF("lambda x: x['w'] > 4")))
	}
	fused := run()
	unfused := run(WithStageFusion(false))
	if fmt.Sprint(fused.Rows) != fmt.Sprint(unfused.Rows) {
		t.Fatalf("fusion changed results: %v vs %v", fused.Rows, unfused.Rows)
	}
	if unfused.Metrics.NumStages <= fused.Metrics.NumStages {
		t.Fatalf("expected more stages without fusion: %d vs %d",
			unfused.Metrics.NumStages, fused.Metrics.NumStages)
	}
}

func TestCompilerOptAblationSameResults(t *testing.T) {
	csv := "s\nhello world\nfoo bar\n"
	run := func(opts ...Option) *Result {
		c := NewContext(opts...)
		return collect(t, c.CSV("", CSVData([]byte(csv))).
			MapColumn("s", UDF("lambda s: s.split(' ')[0].upper()")))
	}
	opt := run()
	unopt := run(WithCompilerOptimizations(false))
	if fmt.Sprint(opt.Rows) != fmt.Sprint(unopt.Rows) {
		t.Fatalf("codegen specialization changed results: %v vs %v", opt.Rows, unopt.Rows)
	}
}
