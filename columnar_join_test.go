package tuplex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
)

// Columnar join edge cases: the vector-native build/probe path must
// agree with the interpreter on inputs that stress its layout — keys
// from all-null columns, string keys long enough to span arena chunk
// seams, a filter-annihilated build side, and duplicate-key fan-out
// ordering and failures — plus a dirty-key NC/EC differential over
// inline data and files.

func wantSameRows(t *testing.T, on, off *tuplex.Result) {
	t.Helper()
	if len(on.Rows) != len(off.Rows) {
		t.Fatalf("%d rows, reference %d:\n  compiled  %v\n  reference %v", len(on.Rows), len(off.Rows), on.Rows, off.Rows)
	}
	for i, row := range on.Rows {
		if !sameRow(row, off.Rows[i]) {
			t.Fatalf("row %d\n  compiled  %s\n  reference %s", i, typedRow(row), typedRow(off.Rows[i]))
		}
	}
	requireSameRun(t, "rows", off, on)
}

// TestColumnarJoinAllNullKeyColumns: every key cell on one (then both)
// sides is null. The vector path must reproduce the interpreter's
// null-key semantics, including left-outer padding.
func TestColumnarJoinAllNullKeyColumns(t *testing.T) {
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 50 {
		fmt.Fprintf(&build, ",b%d\n", i)
		if i%2 == 0 {
			fmt.Fprintf(&probe, ",p%d\n", i)
		} else {
			fmt.Fprintf(&probe, "%d,p%d\n", i, i)
		}
	}
	for _, left := range []bool{false, true} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			lhs := c.CSV("", tuplex.CSVData([]byte(probe.String())))
			rhs := c.CSV("", tuplex.CSVData([]byte(build.String())))
			if left {
				return lhs.LeftJoin(rhs, "k", "k").Collect()
			}
			return lhs.Join(rhs, "k", "k").Collect()
		})
		wantSameRows(t, on, off)
	}
}

// TestColumnarJoinArenaSeamKeys: string keys from a few hundred bytes
// up past the string arena's largest chunk size (64 KiB), so encoded
// keys routinely start in one arena chunk and end in another on both
// the build and probe vectors.
func TestColumnarJoinArenaSeamKeys(t *testing.T) {
	key := func(i int) string {
		return fmt.Sprintf("k%d-%s", i, strings.Repeat(string(rune('a'+i%26)), 300+i*700%70000))
	}
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 120 {
		fmt.Fprintf(&build, "%s,b%d\n", key(i), i)
		fmt.Fprintf(&probe, "%s,p%d\n", key(i*3%150), i)
	}
	on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
		lhs := c.CSV("", tuplex.CSVData([]byte(probe.String())))
		rhs := c.CSV("", tuplex.CSVData([]byte(build.String())))
		return lhs.Join(rhs, "k", "k").ToCSV("")
	})
	wantSameCSV(t, on, off)
	if !strings.Contains(string(on.CSV), ",b3\n") && !strings.Contains(string(on.CSV), ",b3\r\n") {
		t.Fatalf("expected some matches in output, got %d bytes", len(on.CSV))
	}
}

// TestColumnarJoinFilterAnnihilatedBuild: a filter drops every build
// row before the join, leaving an empty build table. Inner joins must
// emit nothing; left joins must pad every probe row.
func TestColumnarJoinFilterAnnihilatedBuild(t *testing.T) {
	buildRows := make([][]any, 30)
	for i := range buildRows {
		buildRows[i] = []any{int64(i), fmt.Sprintf("b%d", i)}
	}
	probeRows := make([][]any, 20)
	for i := range probeRows {
		probeRows[i] = []any{int64(i), fmt.Sprintf("p%d", i)}
	}
	for _, left := range []bool{false, true} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			rhs := c.Parallelize(buildRows, []string{"k", "name"}).
				Filter(tuplex.UDF("lambda x: x['k'] < 0"))
			lhs := c.Parallelize(probeRows, []string{"k", "v"})
			if left {
				return lhs.LeftJoin(rhs, "k", "k").Collect()
			}
			return lhs.Join(rhs, "k", "k").Collect()
		})
		wantSameRows(t, on, off)
		if left && len(on.Rows) != len(probeRows) {
			t.Fatalf("left join over empty build: rows = %d, want %d", len(on.Rows), len(probeRows))
		}
		if !left && len(on.Rows) != 0 {
			t.Fatalf("inner join over empty build: rows = %v, want none", on.Rows)
		}
	}
}

// TestColumnarJoinDuplicateKeyFanOut: heavy duplicate-key fan-out (each
// probe row matches many build rows) must keep build input order within
// each probe row's matches, at one and several executors, as the
// interpreter does.
func TestColumnarJoinDuplicateKeyFanOut(t *testing.T) {
	const buildN, probeN, keys = 200, 60, 5
	buildRows := make([][]any, buildN)
	for i := range buildRows {
		buildRows[i] = []any{int64(i % keys), fmt.Sprintf("b%d", i)}
	}
	probeRows := make([][]any, probeN)
	for i := range probeRows {
		probeRows[i] = []any{int64(i % (keys + 2)), fmt.Sprintf("p%d", i)}
	}
	var want []string
	for _, pr := range probeRows {
		for _, br := range buildRows {
			if pr[0] == br[0] {
				want = append(want, fmt.Sprint([]any{pr[0], pr[1], br[1]}))
			}
		}
	}
	for _, execs := range []int{1, 4} {
		on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
			lhs := c.Parallelize(probeRows, []string{"k", "v"})
			rhs := c.Parallelize(buildRows, []string{"k", "name"})
			return lhs.Join(rhs, "k", "k").Collect()
		}, tuplex.WithExecutors(execs))
		wantSameRows(t, on, off)
		got := make([]string, 0, len(on.Rows))
		for _, r := range on.Rows {
			got = append(got, fmt.Sprint([]any(r)))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("executors=%d: fan-out order diverges from nested-loop reference (%d vs %d rows)",
				execs, len(got), len(want))
		}
	}
}

// TestColumnarJoinDirtyKeyPairsDiff: NC/EC join pairs — both sides
// carry dirty key cells (bools and garbage in an int column) that land
// on the exception path and must join consistently with the sharded
// normal-case table, compiled and on the fallback alone, inline and from
// files in many small chunks.
func TestColumnarJoinDirtyKeyPairsDiff(t *testing.T) {
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 800 {
		switch {
		case i%97 == 0:
			fmt.Fprintf(&build, "True,b%d\n", i)
		case i%53 == 0:
			fmt.Fprintf(&build, "junk-%d,b%d\n", i, i)
		default:
			fmt.Fprintf(&build, "%d,b%d\n", i%120, i)
		}
		switch {
		case i%89 == 0:
			fmt.Fprintf(&probe, "False,p%d\n", i)
		case i%41 == 0:
			fmt.Fprintf(&probe, "bad-%d,p%d\n", i, i)
		default:
			fmt.Fprintf(&probe, "%d,p%d\n", i%150, i)
		}
	}
	dir := t.TempDir()
	probePath, buildPath := filepath.Join(dir, "probe.csv"), filepath.Join(dir, "build.csv")
	if err := os.WriteFile(probePath, []byte(probe.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(buildPath, []byte(build.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, inline := range []bool{true, false} {
		var extra []tuplex.Option
		if !inline {
			extra = []tuplex.Option{tuplex.WithChunkSize(2 << 10)}
		}
		for _, left := range []bool{false, true} {
			on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
				lhs := c.CSV(probePath)
				rhs := c.CSV(buildPath)
				if inline {
					lhs = c.CSV("", tuplex.CSVData([]byte(probe.String())))
					rhs = c.CSV("", tuplex.CSVData([]byte(build.String())))
				}
				if left {
					return lhs.LeftJoin(rhs, "k", "k").ToCSV("")
				}
				return lhs.Join(rhs, "k", "k").ToCSV("")
			}, extra...)
			wantSameCSV(t, on, off)
		}
	}
}

// TestColumnarJoinUniqueKeyVectorKernels: a join against a build side
// with unique keys keeps the probe batch's index space, so the
// vectorizable operators behind it run as vector programs — an inner join
// with a raising withColumn, a left join whose misses a vector `is None`
// reads, and a unique → fan-out → unique chain, whose kernels after the
// fan-out fall back to row closures. Rows and accounting must equal the
// fallback-only run's at 1–4 executors.
func TestColumnarJoinUniqueKeyVectorKernels(t *testing.T) {
	var probe, build, dup strings.Builder
	probe.WriteString("k,v\n")
	build.WriteString("k,name,w\n")
	dup.WriteString("k2,tag\n")
	for i := range 2000 {
		fmt.Fprintf(&probe, "%d,%d.5\n", i*7%260, i%40-20)
	}
	for j := range 200 {
		w := fmt.Sprint(j%9 - 4)
		if j%5 == 1 {
			w = "" // None reaches the withColumn: TypeError
		}
		fmt.Fprintf(&build, "%d,%s-%s,%s\n", j, strings.Repeat("n", j*13%700), fmt.Sprint(j), w)
		fmt.Fprintf(&dup, "%d,t%d\n", j%50, j)
	}
	for _, tc := range []struct {
		name string
		plan func(lhs, rhs, fan *tuplex.DataSet) *tuplex.DataSet
	}{
		{"inner", func(lhs, rhs, _ *tuplex.DataSet) *tuplex.DataSet {
			return lhs.Join(rhs, "k", "k").
				WithColumn("z", tuplex.UDF("lambda r: r['v'] * 2.0 + r['w']")).
				Filter(tuplex.UDF("lambda r: r['z'] > -10.0"))
		}},
		{"left-miss", func(lhs, rhs, _ *tuplex.DataSet) *tuplex.DataSet {
			return lhs.LeftJoin(rhs, "k", "k").
				WithColumn("miss", tuplex.UDF("lambda r: r['name'] is None")).
				MapColumn("v", tuplex.UDF("lambda x: x - 1.0"))
		}},
		{"unique-fanout-unique", func(lhs, rhs, fan *tuplex.DataSet) *tuplex.DataSet {
			return lhs.Join(rhs, "k", "k").
				WithColumn("y", tuplex.UDF("lambda r: r['v'] * 4.0")).
				Join(fan, "k", "k2").
				WithColumn("z", tuplex.UDF("lambda r: r['v'] + 1.0")).
				LeftJoinPrefixed(rhs, "k", "k", "", "again_").
				Filter(tuplex.UDF("lambda r: r['again_w'] is None or r['again_w'] > -2"))
		}},
	} {
		for execs := 1; execs <= 4; execs++ {
			on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
				src := func(s *strings.Builder) *tuplex.DataSet { return c.CSV("", tuplex.CSVData([]byte(s.String()))) }
				return tc.plan(src(&probe), src(&build), src(&dup)).Collect()
			}, tuplex.WithExecutors(execs))
			wantSameRows(t, on, off)
			if len(on.Rows) == 0 || on.Metrics.Batch.VectorRows == 0 {
				t.Fatalf("%s executors=%d: %d rows, %d vector rows; want both", tc.name, execs, len(on.Rows), on.Metrics.Batch.VectorRows)
			}
		}
	}
}

// TestColumnarJoinFanOutFailure: a probe row matches three build rows
// and the withColumn after the join raises on the second match only. The
// source row goes to the fallback, which emits all three matches, the
// failing one resolved; none of the compiled matches may stay besides,
// whether the second match raises in a UDF or leaves the normal path at
// a later join. An aggregate that raises on the second match folds the
// other two once.
func TestColumnarJoinFanOutFailure(t *testing.T) {
	probe := [][]any{{int64(1), int64(10)}}
	build := [][]any{{int64(1), int64(5)}, {int64(1), int64(0)}, {int64(1), int64(2)}}
	joined := func(c *tuplex.Context) *tuplex.DataSet {
		return c.Parallelize(probe, []string{"k", "v"}).Join(c.Parallelize(build, []string{"k", "d"}), "k", "k")
	}
	on, off := bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
		return joined(c).
			WithColumn("q", tuplex.UDF("lambda x: x['v'] // x['d']")).
			Resolve(tuplex.ZeroDivisionError, tuplex.UDF("lambda x: -1")).
			Collect()
	})
	wantSameRows(t, on, off)
	want := [][]any{{int64(1), int64(10), int64(5), int64(2)}, {int64(1), int64(10), int64(0), int64(-1)}, {int64(1), int64(10), int64(2), int64(5)}}
	if fmt.Sprint(on.Rows) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", on.Rows, want)
	}

	// A second fan-out join whose build side holds d = 0 only as an
	// exception row (an int name): the probe of the second match leaves
	// the normal path after the first match has passed the join.
	names := [][]any{{int64(0), int64(7)}}
	for d := 1; d <= 20; d++ {
		names = append(names, []any{int64(d), fmt.Sprintf("n%d", d)}, []any{int64(d), fmt.Sprintf("m%d", d)})
	}
	on, off = bothModes(t, func(c *tuplex.Context) (*tuplex.Result, error) {
		return joined(c).Join(c.Parallelize(names, []string{"d", "name"}), "d", "d").Collect()
	})
	wantSameRows(t, on, off)
	if len(on.Rows) != 5 {
		t.Fatalf("rows %v, want 5", on.Rows)
	}

	var sums [2]any
	for i, ref := range []bool{false, true} {
		v, res, err := joined(tuplex.NewContext(tuplex.WithFallbackOnly(ref))).
			Aggregate(tuplex.UDF("lambda acc, x: acc + x['v'] // x['d']"), tuplex.UDF("lambda a, b: a + b"), int64(0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Rows.Failed != 1 {
			t.Fatalf("fallback only=%v: %d failed rows, want 1", ref, res.Metrics.Rows.Failed)
		}
		sums[i] = v
	}
	if sums[0] != int64(7) || sums[1] != int64(7) {
		t.Fatalf("sum %v, reference %v; want 7", sums[0], sums[1])
	}
}
