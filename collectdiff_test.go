package tuplex_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// The collect sink keeps the final stage's output in column vectors and
// boxes them at finish, merging resolved exception rows back in by order
// key. These differentials hold it to the Collect of a run with every
// row on the tree-walking fallback (value and Go type of every cell) and
// to the CSV sink (every cell's rendering), at 1–4 executors, over inputs
// that stress the merge and the vector kinds.

// collectDiff runs build's pipeline three ways at each executor count and
// requires the compiled Collect to match the fallback-only run's Collect
// cell for cell and the compiled ToCSV output field for field.
func collectDiff(t *testing.T, name string, build func(c *tuplex.Context) *tuplex.DataSet, opts ...tuplex.Option) {
	t.Helper()
	for ex := 1; ex <= 4; ex++ {
		ctx := func(col bool) *tuplex.Context {
			return tuplex.NewContext(append([]tuplex.Option{tuplex.WithExecutors(ex), tuplex.WithFallbackOnly(!col)}, opts...)...)
		}
		label := fmt.Sprintf("%s/executors=%d", name, ex)
		got, err := build(ctx(true)).Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", label, err)
		}
		if len(got.Rows) == 0 || int64(len(got.Rows)) != got.Metrics.Rows.Output {
			t.Fatalf("%s: collected %d rows, output counter %d", label, len(got.Rows), got.Metrics.Rows.Output)
		}
		ref, err := build(ctx(false)).Collect()
		if err != nil {
			t.Fatalf("%s: reference collect: %v", label, err)
		}
		if len(ref.Rows) != len(got.Rows) {
			t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), len(ref.Rows))
		}
		for i, row := range got.Rows {
			if !sameRow(row, ref.Rows[i]) {
				t.Fatalf("%s: row %d\n  compiled  %s\n  reference %s", label, i, typedRow(row), typedRow(ref.Rows[i]))
			}
		}
		requireSameRun(t, label, ref, got)
		rendered, err := build(ctx(true)).ToCSV("")
		if err != nil {
			t.Fatalf("%s: tocsv: %v", label, err)
		}
		r := csv.NewReader(bytes.NewReader(rendered.CSV))
		r.FieldsPerRecord = -1
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: parsing CSV output: %v", label, err)
		}
		if len(recs) != len(got.Rows)+1 || !slices.Equal(recs[0], got.Columns) {
			t.Fatalf("%s: CSV has %d records (header %v), collect %d rows (columns %v)", label, len(recs), recs[0], len(got.Rows), got.Columns)
		}
		for i, row := range got.Rows {
			cells := make([]string, len(row))
			for c, v := range row {
				cells[c] = csvCell(v)
			}
			rec := recs[i+1]
			for c, f := range rec {
				if _, seq := row[c].([]any); seq && strings.HasPrefix(f, "(") {
					rec[c] = "[" + f[1:len(f)-1] + "]" // a tuple
				}
			}
			if !slices.Equal(cells, rec) {
				t.Fatalf("%s: row %d renders %q, CSV has %q", label, i, cells, rec)
			}
		}
	}
}

// sameRow compares cells by Go type and value, floats by bits (NaN by
// NaN-ness).
func sameRow(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		switch {
		case aok && bok:
			if math.Float64bits(fa) != math.Float64bits(fb) && !(fa != fa && fb != fb) {
				return false
			}
		case !reflect.DeepEqual(a[i], b[i]):
			return false
		}
	}
	return true
}

func typedRow(row []any) string {
	var sb strings.Builder
	for _, v := range row {
		fmt.Fprintf(&sb, "%T(%v) ", v, v)
	}
	return sb.String()
}

// csvCell renders a collected cell as the CSV sink renders the Python
// value it came from: None empty, everything else str(). Tuples and lists
// both collect as []any and render as lists here.
func csvCell(v any) string {
	if v == nil {
		return ""
	}
	return pyvalue.ToStr(pyOf(v))
}

func pyOf(v any) pyvalue.Value {
	switch v := v.(type) {
	case nil:
		return pyvalue.None{}
	case bool:
		return pyvalue.Bool(v)
	case int64:
		return pyvalue.Int(v)
	case float64:
		return pyvalue.Float(v)
	case string:
		return pyvalue.Str(v)
	case []any:
		items := make([]pyvalue.Value, len(v))
		for i, it := range v {
			items[i] = pyOf(it)
		}
		return &pyvalue.List{Items: items}
	case map[string]any:
		d := pyvalue.NewDict()
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			d.Set(k, pyOf(v[k]))
		}
		return d
	default:
		panic(fmt.Sprintf("collected cell of type %T", v))
	}
}

// mixedCSV is 6000 rows of a (int: small, large, negative), b (float,
// negative for every third row) and s (string). Rows 2000–2399 carry a
// non-integer a — classifier rejects whose general-path results keep a
// string a, filling whole 4 KiB chunks with exception rows only — and
// rows 3000–3399 are all filtered out, leaving chunks with no output.
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

// TestCollectDiffKinds covers the vector kinds the sink boxes: ints in
// and out of the runtime's 0..255 box cache, -0.0 and NaN floats, an
// all-None column, list and tuple escape columns, and strings — plus
// chunks of exception rows only and chunks with no output at all.
func TestCollectDiffKinds(t *testing.T) {
	raw := mixedCSV()
	collectDiff(t, "kinds", func(c *tuplex.Context) *tuplex.DataSet {
		return c.CSV("", tuplex.CSVData(raw)).
			Filter(tuplex.UDF("lambda x: x['s'] != 'drop'")).
			WithColumn("n", tuplex.UDF("lambda x: None")).
			WithColumn("l", tuplex.UDF("lambda x: [x['a'], 7]")).
			WithColumn("t", tuplex.UDF("lambda x: (x['s'], 2)")).
			WithColumn("z", tuplex.UDF("lambda x: x['b'] * 0.0")).
			WithColumn("q", tuplex.UDF("lambda x: x['b'] * 1e308 * 10.0 - x['b'] * 1e308 * 10.0"))
	}, tuplex.WithChunkSize(4<<10))
}

// TestCollectDiffDictColumn: a dict column from an in-memory source is
// an escape vector of boxed values; a string in its int column makes
// exception rows in some partitions (3000 rows are three partitions of
// at most 1024 rows at every executor count).
func TestCollectDiffDictColumn(t *testing.T) {
	in := make([][]any, 3000)
	for i := range in {
		var a any = int64(i * 3)
		if i%700 == 500 {
			a = "bad"
		}
		in[i] = []any{a, map[string]any{"k": int64(i)}}
	}
	collectDiff(t, "dict", func(c *tuplex.Context) *tuplex.DataSet {
		return c.Parallelize(in, []string{"a", "d"}).
			WithColumn("b", tuplex.UDF("lambda x: x['a'] * 2"))
	})
}

// TestCollectDiffUnique: a trailing unique (or cache) is a rows
// terminal; its rows and the exception rows of every partition box in
// the same merge, and render for ToCSV.
func TestCollectDiffUnique(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := range 6000 {
		a := fmt.Sprint(i % 50)
		if i%1500 == 1400 {
			a = fmt.Sprintf("x%d", i%3000)
		}
		fmt.Fprintf(&sb, "%s,%d\n", a, i%7)
	}
	raw := []byte(sb.String())
	collectDiff(t, "unique", func(c *tuplex.Context) *tuplex.DataSet {
		return c.CSV("", tuplex.CSVData(raw)).Unique()
	}, tuplex.WithChunkSize(4<<10))
	collectDiff(t, "cache", func(c *tuplex.Context) *tuplex.DataSet {
		return c.CSV("", tuplex.CSVData(raw)).Cache()
	}, tuplex.WithChunkSize(4<<10))
}

// TestCollectDiffText: a text source runs as batches of one string
// column; resolver rows interleave. The row closures keep Python's result
// types, so the float column m holds ints for long lines (max(7, 2.5) is
// 7): its vectors must keep them ints.
func TestCollectDiffText(t *testing.T) {
	var sb strings.Builder
	for i := range 5000 {
		n := fmt.Sprint(i * 37)
		if i%9 == 4 {
			n = "n/a"
		}
		fmt.Fprintf(&sb, "line %d,%s\n", i, n)
	}
	raw := []byte(sb.String())
	collectDiff(t, "text", func(c *tuplex.Context) *tuplex.DataSet {
		return c.Text("", tuplex.TextData(raw)).
			WithColumn("n", tuplex.UDF("lambda x: int(x['value'].split(',')[1])")).
			Resolve(tuplex.ValueError, tuplex.UDF("lambda x: -1")).
			WithColumn("m", tuplex.UDF("lambda x: max(len(x['value']) - 10, 2.5)"))
	}, tuplex.WithChunkSize(4<<10))
}

// rowResultCSV is 3000 rows of a small int a and a string s.
func rowResultCSV() []byte {
	var sb strings.Builder
	sb.WriteString("a,s\n")
	for i := range 3000 {
		fmt.Fprintf(&sb, "%d,s%d\n", i%7, i%5)
	}
	return []byte(sb.String())
}

// TestCollectDiffMixedNumericResult: a row closure over a CSV source
// returns max(a, 2.5), an int for a >= 3 in a float column. The column
// keeps the int, as the interpreter does.
func TestCollectDiffMixedNumericResult(t *testing.T) {
	raw := rowResultCSV()
	collectDiff(t, "max", func(c *tuplex.Context) *tuplex.DataSet {
		return c.CSV("", tuplex.CSVData(raw)).
			WithColumn("m", tuplex.UDF("lambda x: max(x['a'], 2.5)"))
	}, tuplex.WithChunkSize(4<<10))
}

// TestCollectDiffDictResult: a compiled withColumn returning a dict
// display yields a dict cell, not the tuple of its keys.
func TestCollectDiffDictResult(t *testing.T) {
	raw := rowResultCSV()
	build := func(c *tuplex.Context) *tuplex.DataSet {
		return c.CSV("", tuplex.CSVData(raw)).
			WithColumn("d", tuplex.UDF("lambda x: {'k': x['a'] * 2, 'v': x['s']}"))
	}
	collectDiff(t, "dict", build, tuplex.WithChunkSize(4<<10))
	got, err := build(tuplex.NewContext()).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"k": int64(6), "v": "s3"}
	if d := got.Rows[3][2]; !reflect.DeepEqual(d, want) {
		t.Fatalf("row 3 d = %#v, want %#v", d, want)
	}
}

// TestCollectDiffFlights: dirty flights, whose general-path rows
// interleave with the vector rows by order key after three joins.
func TestCollectDiffFlights(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 1500, Seed: 321})
	collectDiff(t, "flights", func(c *tuplex.Context) *tuplex.DataSet {
		return pipelines.Flights(pipelines.FlightsSources(c, perf, data.Carriers(), data.Airports()))
	}, tuplex.WithChunkSize(64<<10))
}
