package tuplex_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// The columnar batch data plane (column-vector partitions, vectorized
// CSV ingest, batch UDF kernels with selection vectors) must be
// invisible end to end. These differentials run every paper pipeline
// twice — on the batch plane and on the row-at-a-time reference
// (WithRowPlane) — over dirty data and require byte-identical CSV output
// and identical row accounting (output/failed/ignored), the same
// contract the compiler-optimization differentials enforce.

// colDiffCSV runs one CSV-sink pipeline in both execution modes and
// compares bytes and accounting.
func colDiffCSV(t *testing.T, name string, run func(col bool) *tuplex.Result) {
	t.Helper()
	on := run(true)
	off := run(false)
	if string(on.CSV) != string(off.CSV) {
		a, b := on.CSV, off.CSV
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hiA, hiB := max(0, i-40), min(len(a), i+40), min(len(b), i+40)
		t.Fatalf("%s: CSV differs at byte %d:\n  columnar %q\n  boxed    %q",
			name, i, a[lo:hiA], b[lo:hiB])
	}
	cOn, cOff := on.Metrics.Rows, off.Metrics.Rows
	if cOn.Failed != cOff.Failed || cOn.Ignored != cOff.Ignored || cOn.Output != cOff.Output {
		t.Fatalf("%s: row accounting differs:\n  columnar failed=%d ignored=%d output=%d\n  boxed    failed=%d ignored=%d output=%d",
			name, cOn.Failed, cOn.Ignored, cOn.Output, cOff.Failed, cOff.Ignored, cOff.Output)
	}
	if len(on.Failed) != len(off.Failed) {
		t.Fatalf("%s: failed-row lists differ: %d vs %d", name, len(on.Failed), len(off.Failed))
	}
	requireSameRun(t, name, off, on)
}

func ctxCol(col bool, extra ...tuplex.Option) *tuplex.Context {
	opts := append([]tuplex.Option{tuplex.WithRowPlane(!col), tuplex.WithTracing(tuplex.TraceSamples)}, extra...)
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
	for _, variant := range []pipelines.WeblogVariant{pipelines.WeblogStrip, pipelines.WeblogSplit, pipelines.WeblogRegex} {
		colDiffCSV(t, "weblogs/"+variant.String(), func(col bool) *tuplex.Result {
			// A fixed seed pins the endpoint randomization so both
			// modes compute the same rows.
			c := ctxCol(col, tuplex.WithSeed(4242))
			res, err := pipelines.Weblogs(
				c.Text("", tuplex.TextData(logs)),
				c.CSV("", tuplex.CSVData(bad)),
				variant).ToCSV("")
			if err != nil {
				t.Fatalf("%v: %v", variant, err)
			}
			return res
		})
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

// q6Diff runs Q6 over src in both modes and compares revenue, row
// accounting and ledgers.
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
	if math.Abs(revenue[0]-revenue[1]) > 1e-9*math.Max(1, math.Abs(revenue[1])) {
		t.Fatalf("%s revenue differs: columnar %.6f, boxed %.6f", name, revenue[0], revenue[1])
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

// requireSameRun asserts what no execution plane may change: the row
// counters, the failed rows, and per stage the exception samples (in
// pool order) and the routing ledger.
func requireSameRun(t *testing.T, name string, base, got *tuplex.Result) {
	t.Helper()
	if got.Metrics.Rows != base.Metrics.Rows {
		t.Fatalf("%s: row counters %+v, reference %+v", name, got.Metrics.Rows, base.Metrics.Rows)
	}
	if !reflect.DeepEqual(got.Failed, base.Failed) {
		t.Fatalf("%s: failed rows %v, reference %v", name, got.Failed, base.Failed)
	}
	g, w := stageSpans(got.Trace.Root), stageSpans(base.Trace.Root)
	if len(g) != len(w) {
		t.Fatalf("%s: %d stages, reference %d", name, len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(g[i].Samples, w[i].Samples) {
			t.Fatalf("%s: stage %d exception samples\n  got  %v\n  want %v", name, i, g[i].Samples, w[i].Samples)
		}
		if !reflect.DeepEqual(g[i].Routing, w[i].Routing) {
			t.Fatalf("%s: stage %d routing ledger\n  got  %+v\n  want %+v", name, i, g[i].Routing, w[i].Routing)
		}
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
