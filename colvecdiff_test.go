package tuplex_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// The compiled paths (vectorized CSV ingest, batch UDF kernels with
// selection vectors, the general plan) must compute what the interpreter
// computes. These differentials run every paper pipeline twice — as
// compiled and with every row on the tree-walking fallback
// (WithFallbackOnly) — over dirty data and require byte-identical CSV
// output, the same failed rows in the same order, and the row accounting
// both runs can agree on (requireSameRun).

// colDiffCSV runs one CSV-sink pipeline as compiled (col) and on the
// fallback alone, and compares bytes and accounting.
func colDiffCSV(t *testing.T, name string, run func(col bool) *tuplex.Result) {
	t.Helper()
	diffCSV(t, name, run(true), run(false))
}

// diffCSV compares a compiled run's CSV bytes and accounting (on) with
// the fallback-only run's (off).
func diffCSV(t *testing.T, name string, on, off *tuplex.Result) {
	t.Helper()
	if string(on.CSV) != string(off.CSV) {
		a, b := on.CSV, off.CSV
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hiA, hiB := max(0, i-40), min(len(a), i+40), min(len(b), i+40)
		t.Fatalf("%s: CSV differs at byte %d:\n  compiled  %q\n  reference %q",
			name, i, a[lo:hiA], b[lo:hiB])
	}
	requireSameRun(t, name, off, on)
}

// ctxCol is a compiled context (col) or a fallback-only one.
func ctxCol(col bool, extra ...tuplex.Option) *tuplex.Context {
	opts := append([]tuplex.Option{tuplex.WithFallbackOnly(!col), tuplex.WithTracing(tuplex.TraceSamples)}, extra...)
	return tuplex.NewContext(opts...)
}

// streamedChunkSizes cut the streamed variants' files from many chunks
// (and batch seams) to one.
var streamedChunkSizes = []int{4 << 10, 64 << 10, 16 << 20}

func TestColumnarDiffZillow(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 123, DirtyFraction: 0.03})
	colDiffCSV(t, "zillow", func(col bool) *tuplex.Result {
		res, err := pipelines.Zillow(ctxCol(col).CSV("", tuplex.CSVData(raw))).ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func TestColumnarDiffZillowStreamed(t *testing.T) {
	// Small chunks force many batch seams; every chunk size must be
	// mode-invariant.
	path := writeTemp(t, "zillow.csv", data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 7, DirtyFraction: 0.05}))
	for _, size := range streamedChunkSizes {
		colDiffCSV(t, fmt.Sprintf("zillow/streamed-%d", size), func(col bool) *tuplex.Result {
			res, err := pipelines.Zillow(ctxCol(col, tuplex.WithChunkSize(size)).CSV(path)).ToCSV("")
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
	}
}

func TestColumnarDiffFlightsStreamed(t *testing.T) {
	perf := writeTemp(t, "perf.csv", data.Flights(data.FlightsConfig{Rows: 3000, Seed: 321, DivertedFraction: 0.05}))
	carriers, airports := writeTemp(t, "carriers.csv", data.Carriers()), writeTemp(t, "airports.txt", data.Airports())
	for _, size := range streamedChunkSizes {
		colDiffCSV(t, fmt.Sprintf("flights/streamed-%d", size), func(col bool) *tuplex.Result {
			c := ctxCol(col, tuplex.WithChunkSize(size), tuplex.WithExecutors(2))
			res, err := pipelines.Flights(flightsFiles(c, perf, carriers, airports)).ToCSV("")
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
	}
}

func TestColumnarDiffFlights(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 3000, Seed: 321})
	colDiffCSV(t, "flights", func(col bool) *tuplex.Result {
		in := pipelines.FlightsSources(ctxCol(col), perf, data.Carriers(), data.Airports())
		res, err := pipelines.Flights(in).ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func TestColumnarDiffWeblogs(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 2500, Seed: 77})
	// A fallback row draws its random endpoint letters from another
	// generator than a compiled one, so the letters are masked.
	randomized := regexp.MustCompile(`/~[A-Z]{10}`)
	for _, variant := range []pipelines.WeblogVariant{pipelines.WeblogStrip, pipelines.WeblogSplit, pipelines.WeblogRegex} {
		run := func(col bool) *tuplex.Result {
			c := ctxCol(col, tuplex.WithSeed(4242))
			res, err := pipelines.Weblogs(
				c.Text("", tuplex.TextData(logs)),
				c.CSV("", tuplex.CSVData(bad)),
				variant).ToCSV("")
			if err != nil {
				t.Fatalf("%v: %v", variant, err)
			}
			res.CSV = randomized.ReplaceAll(res.CSV, []byte("/~*"))
			return res
		}
		colDiffCSV(t, "weblogs/"+variant.String(), run)
	}
}

func TestColumnarDiffThreeOneOne(t *testing.T) {
	raw := data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 4000, Seed: 55})
	colDiffCSV(t, "311", func(col bool) *tuplex.Result {
		res, err := pipelines.ThreeOneOne(ctxCol(col).CSV("", tuplex.CSVData(raw))).ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func TestColumnarDiffQ6(t *testing.T) {
	// Q6 is an aggregate: compare the scalar and the accounting instead
	// of CSV bytes.
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 8000, Seed: 99})
	q6Diff(t, "q6", func(col bool) *tuplex.DataSet { return ctxCol(col).CSV("", tuplex.CSVData(raw)) })
}

func TestColumnarDiffQ6Streamed(t *testing.T) {
	path := writeTemp(t, "lineitem.csv", data.TPCHLineitem(data.TPCHConfig{Rows: 20000, Seed: 98}))
	for _, size := range streamedChunkSizes {
		q6Diff(t, fmt.Sprintf("q6/streamed-%d", size), func(col bool) *tuplex.DataSet {
			return ctxCol(col, tuplex.WithChunkSize(size)).CSV(path)
		})
	}
}

// q6Diff runs Q6 over src compiled and on the fallback alone, and
// compares revenue and row accounting. The fallback folds its rows
// serially and the compiled run combines per-task partials, so the sums
// may part in the last digits.
func q6Diff(t *testing.T, name string, src func(col bool) *tuplex.DataSet) {
	t.Helper()
	var revenue [2]float64
	var res [2]*tuplex.Result
	for i, col := range []bool{true, false} {
		v, r, err := pipelines.Q6(src(col))
		if err != nil {
			t.Fatal(err)
		}
		revenue[i], res[i] = v, r
	}
	if !closeFloat(revenue[0], revenue[1]) {
		t.Fatalf("%s revenue differs: compiled %v, reference %v", name, revenue[0], revenue[1])
	}
	requireSameRun(t, name, res[1], res[0])
}

func writeTemp(t *testing.T, name string, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// closeFloat reports whether two float results agree to 1e-12
// relative: a serial fold and a combine of partials may round apart.
func closeFloat(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// requireSameRun asserts what a compiled run (got) must share with the
// fallback-only reference run (base): the rows each stage reading a
// source takes in, the output, failed and resolver-resolved row counters
// and the failed rows, in order. The other counters, the exception
// samples and the routing ledger record which path took a row, and on
// the reference every row takes the fallback (a filter's drop there
// counts as ignored). For the same reason the input counter compares per
// source stage: an interior stage of the reference takes every row
// carried over from the stage before, and none into its normal path.
func requireSameRun(t *testing.T, name string, base, got *tuplex.Result) {
	t.Helper()
	g, w := got.Metrics.Rows, base.Metrics.Rows
	if g.Output != w.Output || g.Failed != w.Failed || g.ResolverResolved != w.ResolverResolved {
		t.Fatalf("%s: row counters %+v, reference %+v", name, g, w)
	}
	gs, ws := got.Metrics.Stages, base.Metrics.Stages
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d stages, reference %d", name, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i].Records != 0 && gs[i].Records != ws[i].Records {
			t.Fatalf("%s: stage %d read %d rows, reference %d", name, i, gs[i].Records, ws[i].Records)
		}
	}
	if !reflect.DeepEqual(got.Failed, base.Failed) {
		t.Fatalf("%s: failed rows %v, reference %v", name, got.Failed, base.Failed)
	}
}

// stageSpans lists a trace's stage spans in span order.
func stageSpans(s *tuplex.Span) []*tuplex.Span {
	var out []*tuplex.Span
	if s.Name == "stage" {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, stageSpans(c)...)
	}
	return out
}

// flightsFiles opens the flights inputs from files, as
// pipelines.FlightsSources does from bytes.
func flightsFiles(c *tuplex.Context, perf, carriers, airports string) pipelines.FlightsInputs {
	return pipelines.FlightsInputs{
		Perf:     c.CSV(perf),
		Carriers: c.CSV(carriers),
		Airports: c.CSV(airports,
			tuplex.CSVHeader(false),
			tuplex.CSVDelimiter(':'),
			tuplex.CSVColumns(data.AirportColumns...),
			tuplex.CSVNullValues("", "N/a", "N/A")),
	}
}
