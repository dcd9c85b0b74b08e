package csvio

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// collectChunks drains a reader, checking alignment invariants, and
// returns the concatenated bytes plus the records of each chunk.
func collectChunks(t *testing.T, data []byte, mode ChunkMode, size int) ([]byte, [][]byte) {
	t.Helper()
	cr := NewChunkReader(bytes.NewReader(data), mode, size, nil)
	var cat []byte
	var recs [][]byte
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(c.Data) == 0 {
			t.Fatalf("empty chunk emitted")
		}
		cat = append(cat, c.Data...)
		var chunkRecs [][]byte
		if mode == ChunkText {
			chunkRecs = splitTextLines(c.Data)
		} else {
			chunkRecs = SplitRecords(c.Data)
		}
		for _, r := range chunkRecs {
			recs = append(recs, append([]byte(nil), r...))
		}
		c.Release()
	}
	if cr.BytesRead() != int64(len(data)) {
		t.Fatalf("BytesRead = %d, want %d", cr.BytesRead(), len(data))
	}
	return cat, recs
}

// splitTextLines mirrors core's plain-line splitting for text chunks.
func splitTextLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			end := i
			if end > start && data[end-1] == '\r' {
				end--
			}
			out = append(out, data[start:end])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// diffAgainstSplitRecords checks that chunked splitting at every small
// chunk size yields exactly SplitRecords(data) on identical bytes.
func diffAgainstSplitRecords(t *testing.T, data []byte) {
	t.Helper()
	want := SplitRecords(data)
	for size := 1; size <= len(data)+2; size++ {
		cat, got := collectChunks(t, data, ChunkCSV, size)
		if !bytes.Equal(cat, data) {
			t.Fatalf("size %d: chunk concatenation differs from input", size)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("size %d: record %d = %q, want %q", size, i, got[i], want[i])
			}
		}
	}
}

func TestChunkReaderQuotedFieldAcrossSeam(t *testing.T) {
	// Quoted fields with embedded newlines and delimiters; every chunk
	// size forces a seam inside the quoted region at some point.
	data := []byte("a,\"line one\nline two\",c\nd,\"x,y\",f\n\"q\"\"uote\",2,3\n")
	diffAgainstSplitRecords(t, data)
}

func TestChunkReaderCRLFAcrossSeam(t *testing.T) {
	data := []byte("a,b\r\nc,d\r\ne,f\r\n")
	diffAgainstSplitRecords(t, data)
}

func TestChunkReaderRecordLargerThanChunk(t *testing.T) {
	big := strings.Repeat("x", 300)
	data := []byte("small,1\n" + big + ",2\n\"" + big + "\n" + big + "\",3\nlast,4\n")
	// Chunk sizes far below the record length force the growth path.
	for _, size := range []int{1, 7, 64, 128} {
		cat, got := collectChunks(t, data, ChunkCSV, size)
		if !bytes.Equal(cat, data) {
			t.Fatalf("size %d: concatenation mismatch", size)
		}
		want := SplitRecords(data)
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("size %d: record %d mismatch", size, i)
			}
		}
	}
}

// TestChunkReaderOversizedRecordLinear streams a 4 MB quoted record,
// newlines inside, at the 64 KiB chunk floor. The chunks are the record
// before it, then the record whole with the short record after it, and
// reading them allocates a small multiple of the record: the buffer
// doubles and the quote count carries forward, where growing it by one
// chunk per round and recounting it cost time and memory quadratic in
// the record.
func TestChunkReaderOversizedRecordLinear(t *testing.T) {
	big := `b,"` + strings.Repeat(strings.Repeat("x", 99)+"\n", 40_000) + `"` + "\n"
	data := []byte("a,1\n" + big + "c,3\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cr := NewChunkReader(bytes.NewReader(data), ChunkCSV, 64<<10, nil)
	var lens []int
	for off := 0; ; {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.Data, data[off:off+len(c.Data)]) {
			t.Fatalf("chunk %d differs from the input at %d", len(lens), off)
		}
		off += len(c.Data)
		lens = append(lens, len(c.Data))
		c.Release()
	}
	runtime.ReadMemStats(&after)
	if want := []int{4, len(data) - 4}; !slices.Equal(lens, want) {
		t.Fatalf("chunk lengths %v, want %v", lens, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(big)) {
		t.Fatalf("reading a %d-byte record allocated %d bytes", len(big), alloc)
	}
}

func TestChunkReaderEmptyTrailingChunk(t *testing.T) {
	// Input length an exact multiple of the chunk size: the final read
	// returns zero bytes and no empty chunk may be emitted.
	data := []byte("ab\ncd\n") // 6 bytes
	for _, size := range []int{1, 2, 3, 6} {
		cat, got := collectChunks(t, data, ChunkCSV, size)
		if !bytes.Equal(cat, data) {
			t.Fatalf("size %d: concatenation mismatch", size)
		}
		if len(got) != 2 {
			t.Fatalf("size %d: %d records, want 2", size, len(got))
		}
	}
	// Empty input yields EOF immediately.
	cr := NewChunkReader(bytes.NewReader(nil), ChunkCSV, 4, nil)
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
}

func TestChunkReaderNoTrailingNewline(t *testing.T) {
	data := []byte("a,1\nb,2\nc,3")
	diffAgainstSplitRecords(t, data)
}

func TestChunkReaderTextMode(t *testing.T) {
	data := []byte("line one\r\nline two\n\nline four")
	want := splitTextLines(data)
	for size := 1; size <= len(data)+2; size++ {
		cat, got := collectChunks(t, data, ChunkText, size)
		if !bytes.Equal(cat, data) {
			t.Fatalf("size %d: concatenation mismatch", size)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d lines, want %d", size, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("size %d: line %d = %q, want %q", size, i, got[i], want[i])
			}
		}
	}
}

func TestChunkReaderSeamNeverInsideQuotes(t *testing.T) {
	// Except for the final chunk, every chunk must end just after an
	// unquoted newline.
	data := []byte("h1,h2\n\"a\nb\",1\n\"c\"\"d\",2\nplain,3\n")
	for size := 1; size < len(data); size++ {
		cr := NewChunkReader(bytes.NewReader(data), ChunkCSV, size, nil)
		for {
			c, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Data[len(c.Data)-1] != '\n' && cr.BytesRead() != int64(len(data)) {
				t.Fatalf("size %d: non-final chunk does not end at a record boundary", size)
			}
			c.Release()
		}
	}
}

func TestSkipFirstRecord(t *testing.T) {
	cases := []struct {
		data string
		mode ChunkMode
		want int
	}{
		{"a,b\nrest", ChunkCSV, 4},
		{"\"x\ny\",b\nrest", ChunkCSV, 8},
		{"no newline", ChunkCSV, 10},
		{"\"open quote\nnext\n", ChunkText, 12},
	}
	for _, c := range cases {
		if got := SkipFirstRecord([]byte(c.data), c.mode); got != c.want {
			t.Errorf("SkipFirstRecord(%q, %d) = %d, want %d", c.data, c.mode, got, c.want)
		}
	}
}
