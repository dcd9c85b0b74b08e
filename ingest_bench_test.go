// BenchmarkIngest measures chunked ingest end to end: wall clock of the
// Zillow pipeline over an on-disk CSV (cold read on the measured path)
// at one and several executors, where record splitting and parsing
// overlap disk I/O.
package tuplex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

func BenchmarkIngest(b *testing.B) {
	raw := data.Zillow(data.ZillowConfig{Rows: 100_000, Seed: 2})
	path := filepath.Join(b.TempDir(), "zillow.csv")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	// Small chunks so even this bench-sized file spans many chunks, the
	// way a paper-scale (multi-GB) input spans thousands of 1 MiB ones.
	const chunk = 256 << 10
	for _, execs := range []int{1, benchParallelism} {
		b.Run(fmt.Sprintf("exec=%d", execs), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for range b.N {
				c := tuplex.NewContext(tuplex.WithExecutors(execs), tuplex.WithChunkSize(chunk))
				res, err := pipelines.Zillow(c.CSV(path)).ToCSV("")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.CSV) == 0 {
					b.Fatal("empty output")
				}
			}
		})
	}
}

// BenchmarkSplitRecords measures the record-boundary scan on a
// quote-free numeric file (newline jumps only) and on Zillow's quoted
// cells (quote-parity counts per segment).
func BenchmarkSplitRecords(b *testing.B) {
	for _, in := range []struct {
		name string
		raw  []byte
	}{
		{"lineitem", benchLineitem},
		{"zillow", benchZillow},
	} {
		b.Run(in.name, func(b *testing.B) {
			want := len(csvio.SplitRecords(in.raw))
			b.SetBytes(int64(len(in.raw)))
			b.ResetTimer()
			for range b.N {
				if got := len(csvio.SplitRecords(in.raw)); got != want {
					b.Fatalf("%d records, want %d", got, want)
				}
			}
		})
	}
}
