package tuplex_test

import (
	"fmt"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
)

// Columnar edge cases: the column-vector data plane must agree with the
// boxed row path byte-for-byte on inputs that stress its layout — null
// bitmaps across chunk seams, chunks with no complete record payload,
// all-null columns, and string cells with embedded quotes and newlines
// (which make physical records span raw chunk boundaries).

// bothModes runs the build function with columnar execution on and off
// and returns the two results.
func bothModes(t *testing.T, build func(c *tuplex.Context) (*tuplex.Result, error), extra ...tuplex.Option) (on, off *tuplex.Result) {
	t.Helper()
	run := func(col bool) *tuplex.Result {
		opts := append([]tuplex.Option{tuplex.WithColumnarExecution(col)}, extra...)
		res, err := build(tuplex.NewContext(opts...))
		if err != nil {
			t.Fatalf("columnar=%v: %v", col, err)
		}
		return res
	}
	return run(true), run(false)
}

func wantSameCSV(t *testing.T, on, off *tuplex.Result) {
	t.Helper()
	if string(on.CSV) != string(off.CSV) {
		t.Fatalf("CSV differs:\n  columnar %q\n  boxed    %q", on.CSV, off.CSV)
	}
	if on.Metrics.Rows != off.Metrics.Rows {
		t.Fatalf("accounting differs: columnar %+v, boxed %+v", on.Metrics.Rows, off.Metrics.Rows)
	}
}

func TestColumnarNullBitmapsAcrossChunkSeams(t *testing.T) {
	// Nullable int and str columns with nulls placed so every tiny chunk
	// boundary lands inside a null run somewhere.
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := range 400 {
		a, b := "", ""
		if i%3 != 0 {
			a = fmt.Sprint(i)
		}
		if i%5 != 0 {
			b = fmt.Sprintf("s%d", i)
		}
		fmt.Fprintf(&sb, "%s,%s,%d\n", a, b, i)
	}
	raw := sb.String()
	for _, chunk := range []int{1 << 7, 1 << 9, 1 << 12} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			return c.CSV("", tuplex.CSVData([]byte(raw))).
				Filter(tuplex.UDF("lambda x: x['c'] % 2 == 0")).
				ToCSV("")
		}, tuplex.WithChunkSize(chunk))
		wantSameCSV(t, on, off)
		if on.Metrics.Rows.Output != 200 {
			t.Fatalf("chunk=%d: output rows = %d, want 200", chunk, on.Metrics.Rows.Output)
		}
	}
}

func TestColumnarAllNullColumn(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := range 50 {
		fmt.Fprintf(&sb, ",%d\n", i)
	}
	on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
		return c.CSV("", tuplex.CSVData([]byte(sb.String()))).
			WithColumn("z", tuplex.UDF("lambda x: x['y'] * 2")).
			ToCSV("")
	}, tuplex.WithChunkSize(1<<7))
	wantSameCSV(t, on, off)
	if on.Metrics.Rows.Output != 50 {
		t.Fatalf("output rows = %d, want 50", on.Metrics.Rows.Output)
	}
	// The all-null column must render as empty cells, not vanish.
	first := strings.SplitN(string(on.CSV), "\n", 3)
	if len(first) < 2 || !strings.HasPrefix(first[1], ",") {
		t.Fatalf("all-null first column not rendered empty: %q", first[1])
	}
}

func TestColumnarQuotedNewlinesAcrossChunks(t *testing.T) {
	// Records whose quoted cells contain newlines, quotes and delimiters;
	// tiny chunks guarantee raw chunk boundaries fall inside quoted
	// bodies, exercising the record-aligned carry.
	var sb strings.Builder
	sb.WriteString("id,text\n")
	for i := range 120 {
		fmt.Fprintf(&sb, "%d,\"line one %d\nline \"\"two\"\", with comma %d\"\n", i, i, i)
	}
	raw := sb.String()
	for _, chunk := range []int{1 << 6, 1 << 8} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			return c.CSV("", tuplex.CSVData([]byte(raw))).
				Filter(tuplex.UDF("lambda x: 'two' in x['text']")).
				ToCSV("")
		}, tuplex.WithChunkSize(chunk))
		wantSameCSV(t, on, off)
		if on.Metrics.Rows.Output != 120 {
			t.Fatalf("chunk=%d: output rows = %d, want 120", chunk, on.Metrics.Rows.Output)
		}
		if !strings.Contains(string(on.CSV), "\"line one 7\nline \"\"two\"\", with comma 7\"") {
			t.Fatalf("chunk=%d: quoted newline cell not round-tripped", chunk)
		}
	}
}

func TestColumnarEmptyAndHeaderOnlyInputs(t *testing.T) {
	// Header-only input has no sampleable rows: the engine rejects it
	// up front, and the rejection must not depend on the execution mode.
	for _, col := range []bool{true, false} {
		c := tuplex.NewContext(tuplex.WithColumnarExecution(col))
		_, err := c.CSV("", tuplex.CSVData([]byte("a,b\n"))).
			Map(tuplex.UDF("lambda x: x['a']")).
			ToCSV("")
		if err == nil || !strings.Contains(err.Error(), "empty CSV input") {
			t.Fatalf("columnar=%v: err = %v, want empty-input rejection", col, err)
		}
	}
}

func TestColumnarEmptyChunksFromFilter(t *testing.T) {
	// A filter that annihilates entire chunks produces empty batches
	// downstream; seams between surviving chunks must stay consistent.
	var sb strings.Builder
	sb.WriteString("n,s\n")
	for i := range 300 {
		fmt.Fprintf(&sb, "%d,v%d\n", i, i)
	}
	on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
		return c.CSV("", tuplex.CSVData([]byte(sb.String()))).
			Filter(tuplex.UDF("lambda x: x['n'] >= 290")).
			MapColumn("s", tuplex.UDF("lambda x: x.upper()")).
			ToCSV("")
	}, tuplex.WithChunkSize(1<<7))
	wantSameCSV(t, on, off)
	if on.Metrics.Rows.Output != 10 {
		t.Fatalf("output rows = %d, want 10", on.Metrics.Rows.Output)
	}
}

// A bare-value UDF on a one-column input that appends a new column (and
// so has no replace index) used to index the kernel's argument vector
// with that missing index. Both a vectorizable and a string body.
func TestColumnarScalarWithColumnAppend(t *testing.T) {
	raw := []byte("a\n1\n2\n\n4\n")
	for _, udf := range []string{"lambda x: x + 1", "lambda x: str(x) + '!'"} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			return c.CSV("", tuplex.CSVData(raw)).WithColumn("b", tuplex.UDF(udf)).ToCSV("")
		})
		wantSameCSV(t, on, off)
		if !strings.Contains(string(on.CSV), "\n4,") {
			t.Fatalf("%s: output lost rows: %q", udf, on.CSV)
		}
	}
}
