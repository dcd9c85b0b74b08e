// BenchmarkIngest measures the tentpole of the streamed ingest work:
// end-to-end wall clock of the Zillow pipeline over an on-disk CSV
// (cold read on the measured path), materialized vs streamed, at one
// and several executors. The streamed path should win whenever record
// splitting/parsing can overlap disk I/O — clearly at N executors, and
// at worst break even single-threaded.
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
	// way a paper-scale (multi-GB) input spans 16 MiB ones.
	const chunk = 256 << 10
	for _, execs := range []int{1, benchParallelism} {
		for _, mode := range []struct {
			name string
			opts []tuplex.Option
		}{
			{"materialized", []tuplex.Option{tuplex.WithStreamingIngest(false)}},
			{"streamed", []tuplex.Option{tuplex.WithChunkSize(chunk)}},
		} {
			b.Run(fmt.Sprintf("%s/exec=%d", mode.name, execs), func(b *testing.B) {
				opts := append([]tuplex.Option{tuplex.WithExecutors(execs)}, mode.opts...)
				b.SetBytes(int64(len(raw)))
				b.ResetTimer()
				for range b.N {
					c := tuplex.NewContext(opts...)
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
