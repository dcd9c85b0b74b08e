package tuplex_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// A stage whose first kernel narrows the selection parses the numeric
// columns it reads at few rows lazily: the chunk parser checks their
// cells in its walk and converts them only where a kernel, a join probe
// or a sink reads them. These
// differentials hold that to the fallback-only run (WithFallbackOnly),
// whose rows carry every cell converted, over dirty lineitem data — bad
// cells in lazy columns on rows the first kernel keeps and on rows it
// drops, nulls, ragged rows, quoted cells — at 1–4 executors, several
// chunk sizes, inline and from a file.

// dirtyLineitem is a lineitem file with about one record in ten spoiled:
// a cell replaced by a spelling off the plain numeric shape (some still
// numbers, most not), or a cell dropped or added.
func dirtyLineitem(rows int, seed uint64) []byte {
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: rows, Seed: seed})
	r := rand.New(rand.NewPCG(seed, 7))
	spoiled := []string{"abc", "", "-", "+", "1e5", `"12.50"`, `"7"`, "1.", ".5", "+7", "-0.0",
		"99999999999999999999", "1234567890123456.5", "123456789012345678", "0.0000000000000001", "n/a", `"x,y"`}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var out bytes.Buffer
	out.WriteString(lines[0] + "\n")
	for _, line := range lines[1:] {
		if r.IntN(10) == 0 {
			cells := strings.Split(line, ",")
			switch k := r.IntN(12); {
			case k == 0:
				cells = cells[:len(cells)-1]
			case k == 1:
				cells = append(cells, "1")
			default:
				cells[r.IntN(len(cells))] = spoiled[r.IntN(len(spoiled))]
			}
			line = strings.Join(cells, ",")
		}
		out.WriteString(line + "\n")
	}
	return out.Bytes()
}

// lazyPlans are Q6-shaped plans over lineitem, each of which leaves some
// numeric column lazy: a guarded aggregate (Q6 itself), a leading filter
// followed by an aggregate, a filter followed by withColumns over lazy
// columns (one a row closure, one a vector program) to a CSV sink, a
// filter followed by a join keyed on a lazy column, a filter whose vector
// program hands rows with a zero l_discount back to its row closure, a
// filter under a sampled guard, and a filter straight to Collect. Each
// filter keeps under a fifth of the rows, the share below which a column
// only later kernels read is lazy. An aggregate's output is its value,
// which sameOutput compares to 1e-12 relative.
var lazyPlans = []struct {
	name string
	run  func(c *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error)
}{
	{"guarded-aggregate", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		v, res, err := pipelines.Q6(ds)
		return res, strconv.FormatFloat(v, 'g', -1, 64), err
	}},
	{"filter-aggregate", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		v, res, err := ds.Filter(tuplex.UDF(fmt.Sprintf("lambda r: r['l_shipdate'] >= %d and r['l_shipdate'] < %d", data.Q6DateLo, data.Q6DateHi))).
			Aggregate(tuplex.UDF("lambda acc, r: acc + r['l_extendedprice'] * r['l_discount']"), tuplex.UDF("lambda a, b: a + b"), 0.0)
		return res, fmt.Sprint(v), err
	}},
	{"filter-withcolumn", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		res, err := ds.Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 300 and r['l_quantity'] < 30")).
			WithColumn("d", tuplex.UDF("lambda r: str(r['l_discount'])")).
			WithColumn("rev", tuplex.UDF("lambda r: r['l_extendedprice'] * 2.0")).
			ToCSV("")
		if err != nil {
			return nil, "", err
		}
		return res, string(res.CSV), nil
	}},
	{"filter-join", func(c *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		var side strings.Builder
		side.WriteString("q,label\n")
		for q := 1; q <= 50; q += 2 {
			fmt.Fprintf(&side, "%d,odd%d\n", q, q)
		}
		rhs := c.CSV("", tuplex.CSVData([]byte(side.String())))
		res, err := ds.Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 300")).Join(rhs, "l_quantity", "q").ToCSV("")
		if err != nil {
			return nil, "", err
		}
		return res, string(res.CSV), nil
	}},
	{"filter-bail", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		res, err := ds.Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 300 and r['l_extendedprice'] / r['l_discount'] > 400000.0")).ToCSV("")
		if err != nil {
			return nil, "", err
		}
		return res, string(res.CSV), nil
	}},
	{"filter-guard", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		// The sample puts l_quantity in [1, 50], so the division skips
		// its zero test under a guard that reads l_quantity at every row.
		res, err := ds.Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 300 and r['l_extendedprice'] / r['l_quantity'] > 950.0")).ToCSV("")
		if err != nil {
			return nil, "", err
		}
		return res, string(res.CSV), nil
	}},
	{"filter-collect", func(_ *tuplex.Context, ds *tuplex.DataSet) (*tuplex.Result, string, error) {
		res, err := ds.Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 400")).Collect()
		if err != nil {
			return nil, "", err
		}
		var sb strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				if f, ok := v.(float64); ok {
					v = math.Float64bits(f)
				}
				fmt.Fprintf(&sb, "%T:%v,", v, v)
			}
			sb.WriteByte('\n')
		}
		return res, sb.String(), nil
	}},
}

func TestLazyColumnsDiff(t *testing.T) {
	dirty := dirtyLineitem(3000, 5)
	dirtyPath := writeTemp(t, "lineitem.csv", dirty)
	for _, plan := range lazyPlans {
		raw, path := dirty, dirtyPath
		for ex := 1; ex <= 4; ex++ {
			for _, size := range []int{2 << 10, 16 << 10, 1 << 20} {
				for _, file := range []bool{false, true} {
					name := fmt.Sprintf("%s/executors=%d/chunk=%d/file=%v", plan.name, ex, size, file)
					var res [2]*tuplex.Result
					var out [2]string
					for i, col := range []bool{true, false} {
						c := ctxCol(col, tuplex.WithExecutors(ex), tuplex.WithChunkSize(size))
						ds := c.CSV("", tuplex.CSVData(raw))
						if file {
							ds = c.CSV(path)
						}
						var err error
						if res[i], out[i], err = plan.run(c, ds); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if !sameOutput(out[0], out[1]) {
						t.Fatalf("%s: output differs:\n  compiled  %.300q\n  reference %.300q", name, out[0], out[1])
					}
					requireSameRun(t, name, res[1], res[0])
					if res[0].Metrics.Rows.Failed == 0 && res[0].Metrics.Rows.Output == res[0].Metrics.Rows.Input {
						t.Fatalf("%s: no row left the normal case", name)
					}
					if lazy, _ := lazyCounts(t, res[0]); lazy == 0 {
						t.Fatalf("%s: no lazy cell", name)
					}
					switch bails := res[0].Metrics.Batch.VectorBailRows; {
					case plan.name == "filter-bail" && bails == 0:
						t.Fatalf("%s: no row handed back to the row closure", name)
					case plan.name == "filter-guard" && bails != 0:
						t.Fatalf("%s: %d rows failed the guard", name, bails)
					}
				}
			}
		}
	}
}

// sameOutput compares two renderings of a plan's output: exactly, or
// to 1e-12 relative when both are one float (an aggregate's value).
func sameOutput(a, b string) bool {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		return closeFloat(fa, fb)
	}
	return a == b
}

// spanAttr returns the value of the first span named name carrying key.
func spanAttr(s *tuplex.Span, name, key string) (string, bool) {
	if s.Name == name {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Val, true
			}
		}
	}
	for _, c := range s.Children {
		if v, ok := spanAttr(c, name, key); ok {
			return v, true
		}
	}
	return "", false
}

// lazyCounts reads the lazy_cells and lazy_converted attributes of a
// run's first execute span that carries them (0, 0 when none does).
func lazyCounts(t *testing.T, res *tuplex.Result) (cells, converted int64) {
	t.Helper()
	for key, dst := range map[string]*int64{"lazy_cells": &cells, "lazy_converted": &converted} {
		if v, ok := spanAttr(res.Trace.Root, "execute", key); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s = %q", key, v)
			}
			*dst = n
		}
	}
	return cells, converted
}

// TestQ6LazyColumns pins which columns Q6 parses lazily — every numeric
// column but l_shipdate, which its guard's first comparison reads at
// every row — and that its guard has only a small share of their cells
// converted. A filter that keeps most rows, and zillow and flights, whose
// first kernels do not narrow the selection, parse no column lazily.
func TestQ6LazyColumns(t *testing.T) {
	const rows = 20000
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: rows, Seed: 3})
	_, res, err := pipelines.Q6(tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans)).CSV("", tuplex.CSVData(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := spanAttr(res.Trace.Root, "compile", "lazy_cols"); got != "l_quantity,l_extendedprice,l_discount" {
		t.Fatalf("q6 lazy_cols = %q, want l_quantity,l_extendedprice,l_discount", got)
	}
	cells, converted := lazyCounts(t, res)
	if cells != 3*rows || converted <= 0 || converted*10 > cells {
		t.Fatalf("q6: lazy_cells=%d lazy_converted=%d, want %d cells and a tenth of them at most converted", cells, converted, 3*rows)
	}

	zillow, err := pipelines.Zillow(tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans)).CSV("", tuplex.CSVData(
		data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 1, DirtyFraction: 0.02})))).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	flights, err := pipelines.Flights(pipelines.FlightsSources(tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans)),
		data.Flights(data.FlightsConfig{Rows: 2000, Seed: 1}), data.Carriers(), data.Airports())).Collect()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := tuplex.NewContext(tuplex.WithTracing(tuplex.TraceSpans)).CSV("", tuplex.CSVData(raw)).
		Filter(tuplex.UDF("lambda r: r['l_shipdate'] < 2000")).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*tuplex.Result{"zillow": zillow, "flights": flights, "filter keeping 78%": wide} {
		if got, ok := spanAttr(r.Trace.Root, "compile", "lazy_cols"); ok {
			t.Errorf("%s: lazy_cols = %q, want none", name, got)
		}
	}
}
