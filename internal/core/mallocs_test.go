package core_test

import (
	"runtime"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// TestStageAllocsMatchMemStats pins the stage Allocs figure, read
// through runtime/metrics without stopping the world, to
// runtime.MemStats.Mallocs: over each stage's execute phase its count
// equals the MemStats delta between the same two points. A second
// stage (after unique) is included, so per-stage reads do not leak into
// each other.
func TestStageAllocsMatchMemStats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	raw := data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 7})
	for attempt := 0; ; attempt++ {
		mallocs, restore := core.MemStatsAtStageReads()
		res, err := pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(1)).CSV("", tuplex.CSVData(raw))).
			Unique().SelectColumns("zipcode", "price").Collect()
		restore()
		if err != nil {
			t.Fatal(err)
		}
		stages, at := res.Metrics.Stages, mallocs()
		if len(stages) != 2 || len(at) != 2*len(stages) {
			t.Fatalf("%d stages, %d allocation reads; want 2 stages, two reads each", len(stages), len(at))
		}
		same := true
		for i, st := range stages {
			want := int64(at[2*i+1] - at[2*i])
			if st.Allocs <= 0 {
				t.Fatalf("stage %d: Allocs = %d, want a positive count", i, st.Allocs)
			}
			if st.Allocs != want {
				same = false
				t.Logf("attempt %d, stage %d: Allocs %d, MemStats.Mallocs delta %d", attempt, i, st.Allocs, want)
			}
		}
		if same {
			return
		}
		// Another goroutine allocating between a flush and its read
		// shifts a count; that must not repeat.
		if attempt == 3 {
			t.Fatal("stage Allocs never matched the MemStats.Mallocs delta")
		}
	}
}
