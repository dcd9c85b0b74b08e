package tuplex

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestAllExceptionSampleWarns(t *testing.T) {
	// Every row fails the UDF: sample-driven typing can't help, but the
	// pipeline still completes with failed-row reports (§7).
	csv := "v\nx\ny\nz\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m / 0")))
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Failed) != 3 {
		t.Fatalf("failed = %d", len(res.Failed))
	}
	for _, f := range res.Failed {
		// 'x' / 0 is a TypeError in Python (the operand check precedes
		// the zero check).
		if f.Exc != TypeError {
			t.Fatalf("exc = %v", f.Exc)
		}
	}
}

func TestToCSVSplicesExceptionRowsInOrder(t *testing.T) {
	csv := "v\n1\n2\nbad\n4\n5\n"
	c := NewContext(WithSampleSize(2))
	res, err := c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m + 1")).
		Resolve(TypeError, UDF("lambda m: -1")).
		ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	want := "v\n2\n3\n-1\n5\n6\n"
	if string(res.CSV) != want {
		t.Fatalf("csv = %q, want %q", res.CSV, want)
	}
}

func TestCacheCreatesStageBoundary(t *testing.T) {
	csv := "v\n1\n2\n3\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m * 2")).
		Cache().
		MapColumn("v", UDF("lambda m: m + 1")))
	if res.Metrics.NumStages < 2 {
		t.Fatalf("stages = %d, want >= 2", res.Metrics.NumStages)
	}
	if res.Rows[2][0] != int64(7) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	left := "k,v\na,1\n,2\nb,3\n"
	right := "k,w\na,10\n,99\n"
	c := NewContext(WithSampleSize(1)) // sample row has non-null key
	res := collect(t, c.CSV("", CSVData([]byte(left))).
		Join(c.CSV("", CSVData([]byte(right))), "k", "k"))
	if len(res.Rows) != 1 || res.Rows[0][0] != "a" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLeftJoinNullKeyPads(t *testing.T) {
	left := "k,v\na,1\n,2\n"
	right := "k,w\na,10\n"
	c := NewContext(WithSampleSize(1))
	res := collect(t, c.CSV("", CSVData([]byte(left))).
		LeftJoin(c.CSV("", CSVData([]byte(right))), "k", "k"))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][2] != nil {
		t.Fatalf("null-key row should pad, got %v", res.Rows[1])
	}
}

func TestResolverOrderFirstMatchWins(t *testing.T) {
	csv := "v\n1\nbad\n"
	c := NewContext(WithSampleSize(1))
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m + 1")).
		Resolve(TypeError, UDF("lambda m: -1")).
		Resolve(TypeError, UDF("lambda m: -2")))
	if res.Rows[1][0] != int64(-1) {
		t.Fatalf("rows = %v (first resolver must win)", res.Rows)
	}
}

func TestResolverItselfFailingReportsRow(t *testing.T) {
	csv := "v\n1\nbad\n"
	c := NewContext(WithSampleSize(1))
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: m + 1")).
		Resolve(TypeError, UDF("lambda m: m / 0"))) // resolver raises too
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("failed = %v", res.Failed)
	}
}

func TestEmptyCSVErrors(t *testing.T) {
	c := NewContext()
	if _, err := c.CSV("", CSVData(nil)).Collect(); err == nil {
		t.Fatal("empty CSV accepted")
	}
}

// An empty inline text source binds no records at all; the stage must
// run over zero rows rather than mistake itself for an interior stage.
func TestEmptyTextYieldsNoRows(t *testing.T) {
	c := NewContext()
	res := collect(t, c.Text("", TextData([]byte(""))))
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMissingFileErrors(t *testing.T) {
	c := NewContext()
	if _, err := c.CSV("/nonexistent/definitely/missing.csv").Collect(); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTextColumnNaming(t *testing.T) {
	c := NewContext()
	res := collect(t, c.Text("", TextData([]byte("a\nb\n")), TextColumn("line")))
	if res.Columns[0] != "line" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestHeaderlessCSVWithColumnNames(t *testing.T) {
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte("1:x\n2:y\n")),
		CSVHeader(false), CSVDelimiter(':'), CSVColumns("n", "s")))
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(1) || res.Rows[1][1] != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCustomNullValuesEndToEnd(t *testing.T) {
	csv := "v\n5\nN/A\n7\n"
	c := NewContext(WithSampleSize(10))
	res := collect(t, c.CSV("", CSVData([]byte(csv)), CSVNullValues("", "N/A")).
		MapColumn("v", UDF("lambda m: m * 2 if m else -1")))
	if res.Rows[1][0] != int64(-1) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBigIntsRoundTrip(t *testing.T) {
	csv := "v\n9007199254740993\n-9223372036854775807\n"
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte(csv))))
	if res.Rows[0][0] != int64(9007199254740993) {
		t.Fatalf("rows = %v (int64 precision lost)", res.Rows)
	}
}

func TestChainedResolversDifferentExceptions(t *testing.T) {
	// int(m) raises ValueError for garbage strings and TypeError for
	// None; each resolver handles its own class.
	csv := "v\nx1\nx2\ngarbage!!\n\nx5\n"
	c := NewContext(WithSampleSize(2))
	res := collect(t, c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda m: int(m[1:])")).
		Resolve(ValueError, UDF("lambda m: -1")).
		Resolve(TypeError, UDF("lambda m: -2")))
	got := fmt.Sprint(res.Rows)
	want := "[[1] [2] [-1] [-2] [5]]"
	if got != want {
		t.Fatalf("rows = %v, want %v (failed: %v)", got, want, res.Failed)
	}
}

func TestUDFSyntaxErrorSurfacesEarly(t *testing.T) {
	c := NewContext()
	_, err := c.CSV("", CSVData([]byte("a\n1\n"))).
		Filter(UDF("lambda x (broken")).
		Collect()
	if err == nil || !strings.Contains(err.Error(), "python") {
		t.Fatalf("err = %v", err)
	}
}

func TestWarningsSurfaceForDegenerateSample(t *testing.T) {
	// A sample whose rows all have different column counts still picks a
	// majority; degenerate inputs must not crash.
	csv := "a,b\n1\n1,2,3\n4,5\n"
	c := NewContext(WithSampleSize(10))
	res, err := c.CSV("", CSVData([]byte(csv))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Rows) + len(res.Failed)
	if total != 3 {
		t.Fatalf("rows+failed = %d, want 3", total)
	}
}

func TestMetricsStringIsReadable(t *testing.T) {
	c := NewContext()
	res := collect(t, c.CSV("", CSVData([]byte("v\n1\n"))))
	s := res.Metrics.String()
	if !strings.Contains(s, "rows:") || !strings.Contains(s, "total=") {
		t.Fatalf("metrics string = %q", s)
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() string {
		c := NewContext(WithSeed(77))
		res := collect(t, c.Text("", TextData([]byte("x\ny\nz\n"))).
			Map(UDF("lambda x: ''.join([random_choice(AB) for t in range(6)])").
				WithGlobal("AB", "ABCDEF")))
		return fmt.Sprint(res.Rows)
	}
	if run() != run() {
		t.Fatal("same seed produced different random output")
	}
}

func TestMultiFileCSVSource(t *testing.T) {
	dir := t.TempDir()
	p1 := dir + "/a.csv"
	p2 := dir + "/b.csv"
	if err := writeFileHelper(p1, "v,w\n1,x\n2,y\n"); err != nil {
		t.Fatal(err)
	}
	if err := writeFileHelper(p2, "v,w\n3,z\n"); err != nil {
		t.Fatal(err)
	}
	// The paper's pipelines join paths with ','.
	c := NewContext()
	res := collect(t, c.CSV(p1+","+p2).MapColumn("v", UDF("lambda m: m * 10")))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[2][0] != int64(30) || res.Rows[2][1] != "z" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTakeTruncates(t *testing.T) {
	c := NewContext()
	res, err := c.CSV("", CSVData([]byte("v\n1\n2\n3\n4\n"))).Take(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
