package pipelines

import (
	"fmt"
	"math"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
)

// The columnar batch data plane (column-vector partitions, vectorized
// CSV ingest, batch UDF kernels with selection vectors) is a pure
// execution-strategy choice: it must be invisible end to end. These
// differentials run every paper pipeline twice — columnar on and off —
// over dirty data and require byte-identical CSV output and identical
// row accounting (output/failed/ignored), the same contract the
// compiler-optimization differentials enforce.

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
	opts := append([]tuplex.Option{tuplex.WithColumnarExecution(col), tuplex.WithTracing(tuplex.TraceSamples)}, extra...)
	return tuplex.NewContext(opts...)
}

// streamedChunkSizes cut the streamed variants' files from many chunks
// (and batch seams) to one.
var streamedChunkSizes = []int{4 << 10, 64 << 10, 16 << 20}

func TestColumnarDiffZillow(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 123, DirtyFraction: 0.03})
	colDiffCSV(t, "zillow", func(col bool) *tuplex.Result {
		res, err := Zillow(ctxCol(col).CSV("", tuplex.CSVData(raw))).ToCSV("")
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
			res, err := Zillow(ctxCol(col, tuplex.WithChunkSize(size)).CSV(path)).ToCSV("")
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
			res, err := Flights(flightsFiles(c, perf, carriers, airports)).ToCSV("")
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
		in := FlightsSources(ctxCol(col), perf, data.Carriers(), data.Airports())
		res, err := Flights(in).ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func TestColumnarDiffWeblogs(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 2500, Seed: 77})
	for _, variant := range []WeblogVariant{WeblogStrip, WeblogSplit, WeblogRegex} {
		colDiffCSV(t, "weblogs/"+variant.String(), func(col bool) *tuplex.Result {
			// A fixed seed pins the endpoint randomization so both
			// modes compute the same rows.
			c := ctxCol(col, tuplex.WithSeed(4242))
			res, err := Weblogs(
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
		res, err := ThreeOneOne(ctxCol(col).CSV("", tuplex.CSVData(raw))).ToCSV("")
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
		v, r, err := Q6(src(col))
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
