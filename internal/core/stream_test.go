package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
)

// TestChunkBuffersRecycle streams files of many small chunks through a
// job and counts the chunk buffers the job's pool allocates: a buffer
// released by a worker carries the producer's next chunk, so the count
// is bounded by the chunks in flight — one per worker, one queued per
// worker, one being read and the sampling prefix — not by the file.
func TestChunkBuffersRecycle(t *testing.T) {
	const executors, chunk = 2, 8 << 10
	for _, chunks := range []int{40, 200} {
		var sb strings.Builder
		sb.WriteString("a,b\n")
		for i := 0; sb.Len() < chunks*chunk; i++ {
			fmt.Fprintf(&sb, "%d,%d.25\n", i, i%97)
		}
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		buffers, restore := core.CountChunkBuffers()
		c := tuplex.NewContext(tuplex.WithExecutors(executors), tuplex.WithChunkSize(chunk))
		res, err := c.CSV(path).MapColumn("b", tuplex.UDF("lambda x: x * 2")).Collect()
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if rows := strings.Count(sb.String(), "\n") - 1; len(res.Rows) != rows {
			t.Fatalf("%d chunks: %d rows, want %d", chunks, len(res.Rows), rows)
		}
		if n := buffers(); n < 1 || n > 2*executors+2 {
			t.Fatalf("%d chunks: the chunk pool allocated %d buffers, want 1..%d", chunks, n, 2*executors+2)
		}
	}
}
