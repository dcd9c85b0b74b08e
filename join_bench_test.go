package tuplex_test

import (
	"fmt"
	"strconv"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// benchJoinData makes buildN build rows, each of their keys held by dup
// of them, and probeN probe rows whose keys hit four in five of the
// build's keys.
func benchJoinData(buildN, probeN, dup int) (build, probe [][]any) {
	keys := buildN / dup
	build = make([][]any, buildN)
	for i := range build {
		build[i] = []any{int64(i % keys), fmt.Sprintf("name-%d", i)}
	}
	probe = make([][]any, probeN)
	for i := range probe {
		probe[i] = []any{int64(i % (keys * 5 / 4)), float64(i)}
	}
	return build, probe
}

// runJoin is BenchmarkJoin's body: 20k probe rows through the sharded
// hash join against 2k build rows.
func runJoin(tb testing.TB, build, probe [][]any) {
	c := tuplex.NewContext()
	lhs := c.Parallelize(probe, []string{"k", "v"})
	rhs := c.Parallelize(build, []string{"k", "name"})
	res, err := lhs.Join(rhs, "k", "k").Collect()
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) == 0 {
		tb.Fatal("no join output")
	}
}

// BenchmarkJoin joins against unique build keys: the probe refines the
// batch in place.
func BenchmarkJoin(b *testing.B) {
	build, probe := benchJoinData(2_000, 20_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJoin(b, build, probe)
	}
}

// BenchmarkJoinFanOut joins against build keys held by two rows each:
// every hit emits two rows, and the probe remaps the batch to its output.
func BenchmarkJoinFanOut(b *testing.B) {
	build, probe := benchJoinData(2_000, 20_000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJoin(b, build, probe)
	}
}

// TestJoinShardedAllocs guards the columnar join barrier's allocation
// count. BenchmarkJoin's body measures about 10 560 allocs/op (1–16
// GOMAXPROCS), nearly all of them the collect sink's; the boxed barrier
// the columnar join replaced cost ~210k, so a ceiling of 12 000 catches a
// fall back to boxed rows or per-row allocation creeping into the build
// or probe kernels.
func TestJoinShardedAllocs(t *testing.T) {
	build, probe := benchJoinData(2_000, 20_000, 1)
	if allocs := testing.AllocsPerRun(3, func() { runJoin(t, build, probe) }); allocs > 12_000 {
		t.Fatalf("sharded join: %.0f allocs/op, ceiling 12000", allocs)
	}
}

func BenchmarkUnique(b *testing.B) {
	_, probe := benchJoinData(2_000, 20_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tuplex.NewContext()
		res, err := c.Parallelize(probe, []string{"k", "v"}).SelectColumns("k").Unique().Collect()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 2_500 { // probe keys span buildN*5/4 values
			b.Fatalf("got %d distinct", len(res.Rows))
		}
	}
}

// stringJoinKey reproduces the pre-kernel probe path: a tag-prefixed
// string key materialized per probe row. Kept as the baseline the
// zero-allocation path is measured against.
func stringJoinKey(s rows.Slot) (string, bool) {
	switch s.Tag {
	case types.KindBool:
		if s.B {
			return "i:1", true
		}
		return "i:0", true
	case types.KindI64:
		return "i:" + strconv.FormatInt(s.I, 10), true
	case types.KindF64:
		return "f:" + strconv.FormatFloat(s.F, 'g', -1, 64), true
	case types.KindStr:
		return "s:" + s.S, true
	default:
		return "", false
	}
}

// BenchmarkProbeHashKernel measures one probe of the hash kernel hot
// path: scratch-buffer key encode + Hash64 + shard lookup. 0 allocs/op.
func BenchmarkProbeHashKernel(b *testing.B) {
	const n = 4096
	table := map[uint64][]int{}
	buf := make([]byte, 0, 64)
	for i := 0; i < n; i++ {
		buf, _ = rows.AppendJoinKey(buf[:0], rows.I64(int64(i)))
		h := rows.Hash64(buf)
		table[h] = append(table[h], i)
	}
	slots := make([]rows.Slot, n)
	for i := range slots {
		slots[i] = rows.I64(int64(i * 3 / 2)) // mix of hits and misses
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = rows.AppendJoinKey(buf[:0], slots[i%n])
		if !ok {
			continue
		}
		if len(table[rows.Hash64(buf)]) > 0 {
			hits++
		}
	}
	_ = hits
}

// BenchmarkProbeStringBaseline measures the same probe against the old
// string-keyed map: every row allocates its key string.
func BenchmarkProbeStringBaseline(b *testing.B) {
	const n = 4096
	table := map[string][]int{}
	for i := 0; i < n; i++ {
		k, _ := stringJoinKey(rows.I64(int64(i)))
		table[k] = append(table[k], i)
	}
	slots := make([]rows.Slot, n)
	for i := range slots {
		slots[i] = rows.I64(int64(i * 3 / 2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		k, ok := stringJoinKey(slots[i%n])
		if !ok {
			continue
		}
		if len(table[k]) > 0 {
			hits++
		}
	}
	_ = hits
}
