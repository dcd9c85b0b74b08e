package tuplex_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
)

// collectInput is a 20k-row, four-column CSV (ints in and out of 0..255,
// a float, a short string) for the columnar collect sink.
func collectInput() []byte {
	var sb strings.Builder
	sb.WriteString("a,b,c,d\n")
	for i := range 20_000 {
		fmt.Fprintf(&sb, "%d,%d.5,name-%d,%d\n", i, i%1000, i%97, i%200)
	}
	return []byte(sb.String())
}

// runCollect collects the input with one derived column: 20k rows × 5
// output cells.
func runCollect(tb testing.TB, raw []byte) {
	res, err := tuplex.NewContext().CSV("", tuplex.CSVData(raw)).
		WithColumn("e", tuplex.UDF("lambda x: x['a'] + x['d']")).
		Collect()
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) != 20_000 {
		tb.Fatalf("collected %d rows", len(res.Rows))
	}
}

func BenchmarkCollect(b *testing.B) {
	raw := collectInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollect(b, raw)
	}
}

// TestCollectBytesPerCell guards the collect sink's allocation volume.
// runCollect measures about 70 bytes allocated per output cell: the
// per-batch output vectors, the boxed cells and their slabs, and the row
// headers. Staging every cell in an 80-byte rows.Slot before boxing — the
// sink this replaced allocated ~190 bytes per cell — exceeds the ceiling
// on its own, as does unsized vector growth (~100).
func TestCollectBytesPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	raw := collectInput()
	runCollect(t, raw) // warm package state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const runs, cells = 3, 20_000 * 5
	for range runs {
		runCollect(t, raw)
	}
	runtime.ReadMemStats(&ms)
	if perCell := float64(ms.TotalAlloc-before) / runs / cells; perCell > 76 {
		t.Fatalf("collect: %.1f bytes allocated per output cell, ceiling 76", perCell)
	}
}
