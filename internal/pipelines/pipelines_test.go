package pipelines

import (
	"fmt"
	"math"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
)

func TestZillowMatchesHandOptimized(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 42, DirtyFraction: 0.01})
	c := tuplex.NewContext()
	res, err := Zillow(c.CSV("", tuplex.CSVData(raw))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.Zillow(raw)
	if len(res.Rows) != len(want) {
		t.Fatalf("tuplex %d rows, native %d rows", len(res.Rows), len(want))
	}
	for i, w := range want {
		got := res.Rows[i]
		if got[0] != w.URL || got[1] != w.Zipcode || got[3] != w.City ||
			got[5] != w.Bedrooms || got[6] != w.Bathrooms || got[7] != w.Sqft ||
			got[8] != w.Offer || got[9] != w.Type || got[10] != w.Price {
			t.Fatalf("row %d: tuplex %v, native %+v", i, got, w)
		}
	}
	// Dirty rows must appear in statistics, not as crashes.
	cnt := res.Metrics.Rows
	if cnt.ClassifierRejects+cnt.NormalPathExceptions == 0 {
		t.Fatal("expected some exception rows from the dirty fraction")
	}
	t.Logf("zillow metrics: %s", res.Metrics)
}

func TestZillowUnoptimizedMatchesOptimized(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 1200, Seed: 7, DirtyFraction: 0.02})
	run := func(opts ...tuplex.Option) []tuplex.Row {
		c := tuplex.NewContext(opts...)
		res, err := Zillow(c.CSV("", tuplex.CSVData(raw))).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	base := run()
	for name, opt := range map[string]tuplex.Option{
		"no-logical":      tuplex.WithLogicalOptimizations(false, false, false),
		"no-fusion":       tuplex.WithStageFusion(false),
		"no-compiler-opt": tuplex.WithCompilerOptimizations(false),
		"no-null-opt":     tuplex.WithNullOptimization(false),
		"parallel":        tuplex.WithExecutors(4),
	} {
		got := run(opt)
		if len(got) != len(base) {
			t.Fatalf("%s: %d rows vs %d", name, len(got), len(base))
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(base[i]) {
				t.Fatalf("%s: row %d differs: %v vs %v", name, i, got[i], base[i])
			}
		}
	}
}

func TestFlightsPipelineRuns(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 4000, Seed: 11})
	in := FlightsSources(tuplex.NewContext(), perf, data.Carriers(), data.Airports())
	res, err := Flights(in).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no output rows")
	}
	if len(res.Columns) != len(FlightsOutputColumns) {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Column sanity on the first row.
	col := map[string]int{}
	for i, c := range res.Columns {
		col[c] = i
	}
	r0 := res.Rows[0]
	if name, ok := r0[col["CarrierName"]].(string); !ok || name == "" || strings.Contains(name, "Inc.") {
		t.Fatalf("CarrierName = %v (suffixes must be stripped)", r0[col["CarrierName"]])
	}
	if d, ok := r0[col["Distance"]].(float64); !ok || d < 100000 {
		t.Fatalf("Distance = %v (must be converted to meters)", r0[col["Distance"]])
	}
	if _, ok := r0[col["Cancelled"]].(bool); !ok {
		t.Fatalf("Cancelled = %T", r0[col["Cancelled"]])
	}
	// CrsArrTime formatted as HH:MM.
	if s, ok := r0[col["CrsArrTime"]].(string); ok {
		if len(s) < 4 || !strings.Contains(s, ":") {
			t.Fatalf("CrsArrTime = %q", s)
		}
	}
	// Defunct-airline rows must be filtered: every Year < defunct year.
	for _, r := range res.Rows {
		if yd, ok := r[col["AirlineYearDefunct"]].(int64); ok {
			if y := r[col["Year"]].(int64); y >= yd {
				t.Fatalf("defunct airline row survived: year %d >= %d", y, yd)
			}
		}
	}
	t.Logf("flights: %d rows, metrics: %s", len(res.Rows), res.Metrics)
	// The diverted/cancelled generator knobs must produce general-case
	// rows, like §6.1.2's 2.6%.
	cnt := res.Metrics.Rows
	if cnt.ClassifierRejects == 0 {
		t.Fatal("expected diverted rows to leave the normal path")
	}
	if cnt.Failed > 0 {
		t.Fatalf("failed rows: %v", res.Failed[:min(3, len(res.Failed))])
	}
}

func TestFlightsDivertedRowsUseActualDivertedTime(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 3000, Seed: 3, DivertedFraction: 0.05})
	in := FlightsSources(tuplex.NewContext(), perf, data.Carriers(), data.Airports())
	res, err := Flights(in).Collect()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, c := range res.Columns {
		col[c] = i
	}
	sawDiverted := false
	for _, r := range res.Rows {
		if d, ok := r[col["Diverted"]].(bool); ok && d {
			sawDiverted = true
			if r[col["CancellationReason"]] != "diverted" {
				t.Fatalf("diverted row reason = %v", r[col["CancellationReason"]])
			}
			// fillInTimesUDF must have used DIV_ACTUAL_ELAPSED_TIME,
			// which the generator always makes larger than the
			// scheduled elapsed time.
			aet := r[col["ActualElapsedTime"]].(int64)
			crs := r[col["CrsElapsedTime"]].(int64)
			if aet <= crs {
				t.Fatalf("diverted row kept scheduled time: actual %d <= crs %d", aet, crs)
			}
		}
	}
	if !sawDiverted {
		t.Fatal("no diverted rows in output")
	}
}

func TestWeblogsAllVariantsAgree(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 4000, Seed: 5})
	normalize := func(rows []tuplex.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			endpoint := r[3].(string)
			if strings.HasPrefix(endpoint, "/~") {
				j := strings.IndexByte(endpoint[2:], '/')
				if j < 0 {
					endpoint = "/~*"
				} else {
					endpoint = "/~*" + endpoint[2+j:]
				}
			}
			out[i] = fmt.Sprintf("%v|%v|%v|%v|%v|%v|%v", r[0], r[1], r[2], endpoint, r[4], r[5], r[6])
		}
		return out
	}
	var results [][]string
	for _, variant := range []WeblogVariant{WeblogStrip, WeblogSplit, WeblogRegex} {
		c := tuplex.NewContext(tuplex.WithSeed(99))
		res, err := Weblogs(
			c.Text("", tuplex.TextData(logs)),
			c.CSV("", tuplex.CSVData(bad)),
			variant).Collect()
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%v: no rows", variant)
		}
		results = append(results, normalize(res.Rows))
		t.Logf("%v: %d rows, metrics: %s", variant, len(res.Rows), res.Metrics)
	}
	if fmt.Sprint(results[0]) != fmt.Sprint(results[2]) {
		t.Fatal("strip and regex variants disagree")
	}
	// The split variant never emits parse-failed rows (they die with
	// IndexError on the exception path), while strip/regex emit ip=''
	// rows that the join then drops — so all three agree on retained
	// rows.
	if fmt.Sprint(results[0]) != fmt.Sprint(results[1]) {
		t.Fatal("strip and split variants disagree")
	}
}

func TestWeblogsMatchesHandOptimized(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 3000, Seed: 21})
	c := tuplex.NewContext()
	res, err := Weblogs(c.Text("", tuplex.TextData(logs)), c.CSV("", tuplex.CSVData(bad)), WeblogStrip).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.Weblogs(logs, bad, 1)
	if len(res.Rows) != len(want) {
		t.Fatalf("tuplex %d rows, native %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		got := res.Rows[i]
		if got[0] != w.IP || got[1] != w.Date || got[2] != w.Method ||
			got[4] != w.Protocol || got[5] != w.ResponseCode || got[6] != w.ContentSize {
			t.Fatalf("row %d: %v vs %+v", i, got, w)
		}
	}
}

func TestThreeOneOneMatchesHandOptimized(t *testing.T) {
	raw := data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 5000, Seed: 17})
	c := tuplex.NewContext()
	res, err := ThreeOneOne(c.CSV("", tuplex.CSVData(raw))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.ThreeOneOne(raw)
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[fmt.Sprint(r[0])] = true
	}
	if len(got) != len(want) {
		t.Fatalf("tuplex %d unique zips %v, native %d %v", len(got), res.Rows, len(want), want)
	}
	for _, z := range want {
		if !got[z] {
			t.Fatalf("missing zip %s", z)
		}
	}
	t.Logf("311: %d unique zips, metrics: %s", len(got), res.Metrics)
}

func TestQ6MatchesHandOptimized(t *testing.T) {
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 20000, Seed: 31})
	c := tuplex.NewContext()
	got, res, err := Q6(c.CSV("", tuplex.CSVData(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.Q6(raw, data.Q6DateLo, data.Q6DateHi)
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("tuplex %.4f, native %.4f", got, want)
	}
	if want == 0 {
		t.Fatal("degenerate Q6 (zero revenue)")
	}
	t.Logf("q6 revenue: %.2f, metrics: %s", got, res.Metrics)
}

func TestQ6Parallel(t *testing.T) {
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 20000, Seed: 31})
	c := tuplex.NewContext(tuplex.WithExecutors(4))
	got, _, err := Q6(c.CSV("", tuplex.CSVData(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.Q6(raw, data.Q6DateLo, data.Q6DateHi)
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("parallel %.4f, native %.4f", got, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
