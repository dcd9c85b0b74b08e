package core_test

import (
	"context"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// BenchmarkResolvePool resolves the exception pool of flights' probe
// stage over a 150k-row file: ~4.5k raw records (empty cells in columns
// sampled f64, values in columns sampled Null, guard misses) through
// resolveExceptions, outside ingest and the normal path. With the
// general plan every one of them runs in batches; the tree-walking
// fallback, row by row, is what ResolveFallback measures.
func BenchmarkResolvePool(b *testing.B) {
	for _, mode := range []string{"batched", "fallback"} {
		b.Run(mode, func(b *testing.B) {
			c := tuplex.NewContext()
			ds := pipelines.Flights(pipelines.FlightsSources(c, data.Flights(data.FlightsConfig{Rows: 150000, Seed: 7}), data.Carriers(), data.Airports()))
			_, cp, err := core.CompileAndExecute(context.Background(), planNode(b, ds), core.SinkCollect, "", core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if mode == "fallback" {
				cp.ResolveFallback()
			}
			run, err := cp.ResolveBench()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pool int
			for i := 0; i < b.N; i++ {
				if pool, err = run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if pool < 3000 {
				b.Fatalf("pool holds %d rows, want the ~4.5k of a 150k-row flights file", pool)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pool), "ns/row")
		})
	}
}
