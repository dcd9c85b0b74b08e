package tuplex

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/types"
)

// TestJoinDuplicateBuildKeysOrder: duplicate build keys fan out one
// output row per match, in build input order (the sharded table must
// preserve the single-map insertion order).
func TestJoinDuplicateBuildKeysOrder(t *testing.T) {
	c := NewContext()
	build := c.Parallelize([][]any{
		{int64(7), "first"},
		{int64(9), "other"},
		{int64(7), "second"},
		{int64(7), "third"},
	}, []string{"k", "name"})
	probe := c.Parallelize([][]any{
		{int64(7), "p"},
	}, []string{"k", "v"})
	res := collect(t, probe.Join(build, "k", "k"))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, want := range []string{"first", "second", "third"} {
		if res.Rows[i][2] != want {
			t.Fatalf("row %d = %v, want name %q", i, res.Rows[i], want)
		}
	}
}

// TestJoinNumericKeyNormalization: int probe keys join float and bool
// build keys when the values are numerically equal (1 == 1.0 == True).
func TestJoinNumericKeyNormalization(t *testing.T) {
	c := NewContext()
	build := c.Parallelize([][]any{
		{float64(1), "f-one"},
		{float64(2.5), "f-half"},
	}, []string{"k", "name"})
	probe := c.Parallelize([][]any{
		{int64(1), "a"},
		{int64(2), "b"},
	}, []string{"k", "v"})
	res := collect(t, probe.Join(build, "k", "k"))
	if len(res.Rows) != 1 || res.Rows[0][2] != "f-one" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestJoinBuildSideExceptionRows: a non-conforming build row (bool in an
// int column) lands in the general map; a conforming probe row whose key
// matches it must divert to the exception path and pick up matches from
// BOTH the sharded table and the general map (§4.5 NC/EC pairs).
func TestJoinBuildSideExceptionRows(t *testing.T) {
	c := NewContext()
	build := c.Parallelize([][]any{
		{int64(1), "shard"},
		{int64(2), "two"},
		{true, "general"}, // exception row; True normalizes to key 1
	}, []string{"k", "name"})
	probe := c.Parallelize([][]any{
		{int64(1), "p1"},
		{int64(2), "p2"},
		{int64(3), "p3"},
	}, []string{"k", "v"})
	res := collect(t, probe.Join(build, "k", "k"))
	got := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		got = append(got, fmt.Sprint(r))
	}
	sort.Strings(got)
	want := []string{
		fmt.Sprint([]any{int64(1), "p1", "general"}),
		fmt.Sprint([]any{int64(1), "p1", "shard"}),
		fmt.Sprint([]any{int64(2), "p2", "two"}),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestJoinProbeSideExceptionRows: a non-conforming probe row resolved on
// the boxed path must probe the same build table and join correctly.
func TestJoinProbeSideExceptionRows(t *testing.T) {
	c := NewContext()
	build := c.Parallelize([][]any{
		{int64(1), "one"},
		{int64(2), "two"},
	}, []string{"k", "name"})
	probe := c.Parallelize([][]any{
		{int64(2), "clean"},
		{true, "dirty"}, // exception row; True normalizes to key 1
	}, []string{"k", "v"})
	res := collect(t, probe.Join(build, "k", "k"))
	got := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%v-%v", r[1], r[2]))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint([]string{"clean-two", "dirty-one"}) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestLeftJoinExceptionNonePadding: an unmatched exception-path probe
// row on a left join still pads the build columns with None.
func TestLeftJoinExceptionNonePadding(t *testing.T) {
	c := NewContext()
	build := c.Parallelize([][]any{
		{int64(1), "one"},
	}, []string{"k", "name"})
	probe := c.Parallelize([][]any{
		{int64(1), "hit"},
		{"zz", "miss"}, // exception row; string key matches nothing
	}, []string{"k", "v"})
	res := collect(t, probe.LeftJoin(build, "k", "k"))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	byV := map[any]any{}
	for _, r := range res.Rows {
		byV[r[1]] = r[2]
	}
	if byV["hit"] != "one" || byV["miss"] != nil {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestJoinShardedMatchesReference: differential check of the sharded
// build/probe kernels against a nested-loop reference join, at one and
// at several executors — output rows and their order must be identical
// to the probe-order × build-order reference.
func TestJoinShardedMatchesReference(t *testing.T) {
	const buildN, probeN = 150, 400
	build := make([][]any, buildN)
	for i := range build {
		build[i] = []any{int64(i * 13 % 50), fmt.Sprintf("b%d", i)}
	}
	probe := make([][]any, probeN)
	for i := range probe {
		probe[i] = []any{int64(i * 7 % 60), fmt.Sprintf("p%d", i)}
	}
	var want []string
	for _, pr := range probe {
		for _, br := range build {
			if pr[0] == br[0] {
				want = append(want, fmt.Sprint([]any{pr[0], pr[1], br[1]}))
			}
		}
	}
	for _, execs := range []int{1, 4} {
		c := NewContext(WithExecutors(execs))
		res := collect(t, c.Parallelize(probe, []string{"k", "v"}).
			Join(c.Parallelize(build, []string{"k", "name"}), "k", "k"))
		got := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			got = append(got, fmt.Sprint(r))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("executors=%d: %d rows vs reference %d; mismatch", execs, len(got), len(want))
		}
	}
}

// TestJoinCSVSinkMaterializesBuildSide: regression — with a CSV sink
// the join build sub-chain used to inherit the engine-wide sink kind,
// so its terminal stage rendered CSV and materialized nothing, leaving
// every build table empty (joins under ToCSV silently matched zero
// rows).
func TestJoinCSVSinkMaterializesBuildSide(t *testing.T) {
	c := NewContext()
	build := c.CSV("", CSVData([]byte("k,name\n1,one\n2,two\n")))
	probe := c.CSV("", CSVData([]byte("k,v\n1,p1\n3,p3\n")))
	res, err := probe.Join(build, "k", "k").ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.CSV); got != "k,v,name\n1,p1,one\n" {
		t.Fatalf("csv = %q", got)
	}
	if res.Metrics.Join.BuildRows != 2 {
		t.Fatalf("build rows = %d, want 2", res.Metrics.Join.BuildRows)
	}
}

// TestUniqueNoFramingCollision: regression for the old uniqueKey
// encoding, which concatenated per-column renders with 0-byte/tag-byte
// separators — these two distinct rows used to encode identically and
// Unique() returned only one of them.
func TestUniqueNoFramingCollision(t *testing.T) {
	tag := string(byte(types.KindStr))
	rowA := []any{"x\x00" + tag + "y", "z"}
	rowB := []any{"x", "y\x00" + tag + "z"}
	c := NewContext()
	res := collect(t, c.Parallelize([][]any{rowA, rowB, rowA}, []string{"a", "b"}).Unique())
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %d (%v), want 2", len(res.Rows), res.Rows)
	}
}

// TestUniqueParallelMatchesSerial: the shard-parallel unique merge keeps
// first-occurrence order identical to the single-threaded path.
func TestUniqueParallelMatchesSerial(t *testing.T) {
	data := make([][]any, 500)
	for i := range data {
		data[i] = []any{int64(i * 11 % 37), fmt.Sprintf("s%d", i%23)}
	}
	run := func(execs int) string {
		c := NewContext(WithExecutors(execs))
		res := collect(t, c.Parallelize(data, []string{"n", "s"}).Unique())
		return fmt.Sprint(res.Rows)
	}
	serial := run(1)
	if parallel := run(4); parallel != serial {
		t.Fatalf("parallel unique differs from serial:\n%s\nvs\n%s", parallel, serial)
	}
}

// TestJoinChainKeepsOrder: each join scales the order keys by 256, and
// a pipeline of up to four joins — as many as the key layout holds —
// returns its rows in input order, compiled and with every row on the
// fallback: through a unique
// terminal, which merges its partitions by key, and with dirty probe
// keys the fallback resolves and merges back in by key. A fifth join is
// refused.
func TestJoinChainKeepsOrder(t *testing.T) {
	input := func(dirty bool) []byte {
		var sb strings.Builder
		sb.WriteString("id,k\n")
		for i := range 2000 {
			k := fmt.Sprint(i % 5)
			if dirty && i%97 == 0 {
				k = "x"
			}
			fmt.Fprintf(&sb, "%d,%s\n", i, k)
		}
		return []byte(sb.String())
	}
	joined := func(c *Context, data []byte, joins int) *DataSet {
		ds := c.CSV("", CSVData(data))
		for j := range joins {
			var build [][]any
			for k := range 5 {
				build = append(build, []any{int64(k), fmt.Sprintf("v%d.%d", j, k)})
			}
			ds = ds.LeftJoin(c.Parallelize(build, []string{"k", fmt.Sprintf("v%d", j)}), "k", "k")
		}
		return ds
	}
	inOrder := func(label string, res *Result) {
		t.Helper()
		if len(res.Rows) != 2000 {
			t.Fatalf("%s: %d rows, want 2000", label, len(res.Rows))
		}
		for i, row := range res.Rows {
			if row[0] != int64(i) {
				t.Fatalf("%s: row %d has id %v", label, i, row[0])
			}
		}
	}
	clean, dirty := input(false), input(true)
	for ex := 1; ex <= 2; ex++ {
		for _, ref := range []bool{false, true} {
			c := NewContext(WithExecutors(ex), WithChunkSize(4096), WithFallbackOnly(ref))
			label := fmt.Sprintf("executors=%d fallback_only=%v", ex, ref)
			res, err := joined(c, clean, 4).SelectColumns("id").Unique().Collect()
			if err != nil {
				t.Fatalf("%s: unique: %v", label, err)
			}
			inOrder(label+" unique", res)
			if res, err = joined(c, dirty, 4).Collect(); err != nil {
				t.Fatalf("%s: dirty: %v", label, err)
			}
			if res.Metrics.Rows.FallbackResolved == 0 {
				t.Fatalf("%s: no dirty row reached the fallback", label)
			}
			inOrder(label+" dirty", res)
			if _, err = joined(c, clean, 5).Collect(); err == nil || !strings.Contains(err.Error(), "joins") {
				t.Fatalf("%s: five joins: err = %v, want a refusal", label, err)
			}
		}
	}
}
