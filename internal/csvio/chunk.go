package csvio

import (
	"bytes"
	"errors"
	"io"
	"sync"
)

// Chunked ingest (§4.4): instead of materializing a whole file before
// the first executor runs, the engine streams fixed-size byte chunks off
// disk and hands each to a worker as one partition. Every chunk this
// reader emits starts at a record boundary and — except possibly the
// final one — ends immediately after a record terminator, so a chunk can
// be record-split and parsed in isolation. The alignment scan tracks
// RFC-4180 quote parity, so quoted fields containing newlines and CRLF
// sequences never straddle an emitted chunk seam; a record longer than
// the chunk size grows the chunk until its terminator is found.

// ChunkMode selects the record-boundary scanner.
type ChunkMode uint8

const (
	// ChunkCSV tracks quote parity: newlines inside quoted fields do not
	// terminate records.
	ChunkCSV ChunkMode = iota
	// ChunkText treats every newline as a record terminator.
	ChunkText
)

// DefaultChunkSize is the streaming ingest chunk size (~16 MiB).
const DefaultChunkSize = 16 << 20

// Chunk is one record-aligned slice of the input. Data aliases a pooled
// buffer: callers must not retain Data (or sub-slices of it) past
// Release.
type Chunk struct {
	// Data holds whole records; except for the final chunk of a file it
	// ends right after a record terminator ('\n').
	Data []byte
	// Index is the chunk's sequence number within its reader.
	Index int

	buf  []byte
	pool *sync.Pool
}

// Release returns the chunk's backing buffer to the pool for reuse.
func (c *Chunk) Release() {
	if c.pool != nil && c.buf != nil {
		buf := c.buf
		c.pool.Put(&buf)
		c.buf, c.Data, c.pool = nil, nil, nil
	}
}

// NewChunkPool returns a buffer pool for chunks of the given size. One
// pool can back many readers; steady-state ingest then performs zero
// large allocations (buffers cycle producer → worker → pool).
func NewChunkPool(size int) *sync.Pool {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &sync.Pool{New: func() any {
		buf := make([]byte, size)
		return &buf
	}}
}

// ChunkReader streams record-aligned chunks from r.
type ChunkReader struct {
	r    io.Reader
	mode ChunkMode
	size int
	pool *sync.Pool

	// carry holds the partial record trailing the last emitted chunk; it
	// is owned by the reader and prepended to the next chunk.
	carry []byte
	idx   int
	eof   bool
	bytes int64
}

// NewChunkReader wraps r. size is the target chunk size (0 uses
// DefaultChunkSize); pool supplies chunk buffers (nil allocates a
// private pool).
func NewChunkReader(r io.Reader, mode ChunkMode, size int, pool *sync.Pool) *ChunkReader {
	if size <= 0 {
		size = DefaultChunkSize
	}
	if pool == nil {
		pool = NewChunkPool(size)
	}
	return &ChunkReader{r: r, mode: mode, size: size, pool: pool}
}

// BytesRead reports the raw bytes consumed from the underlying reader.
func (cr *ChunkReader) BytesRead() int64 { return cr.bytes }

// Next returns the next record-aligned chunk, or (nil, io.EOF) when the
// input is exhausted. Any other error is a read failure.
func (cr *ChunkReader) Next() (*Chunk, error) {
	if cr.eof && len(cr.carry) == 0 {
		return nil, io.EOF
	}
	bufp := cr.pool.Get().(*[]byte)
	buf := *bufp
	if cap(buf) < cr.size {
		buf = make([]byte, cr.size)
	}
	if len(cr.carry) > cap(buf) {
		// An oversized-record round left more carry than one chunk;
		// return the pooled buffer and take a bigger one.
		cr.pool.Put(&buf)
		buf = make([]byte, len(cr.carry)+cr.size)
	}
	buf = buf[:cap(buf)]
	data := buf[:copy(buf, cr.carry)]
	cr.carry = cr.carry[:0]

	for {
		if !cr.eof {
			// Fill up to the target size (at least one read past the
			// carried bytes).
			want := cr.size - len(data)
			if want <= 0 {
				want = cr.size
			}
			if len(data)+want > cap(buf) {
				grown := make([]byte, len(data), len(data)+want)
				copy(grown, data)
				buf, data = grown, grown
			}
			n, err := io.ReadFull(cr.r, buf[len(data):len(data)+want])
			data = data[:len(data)+n]
			cr.bytes += int64(n)
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				cr.eof = true
			} else if err != nil {
				cr.pool.Put(&buf)
				return nil, err
			}
		}
		if cr.eof {
			if len(data) == 0 {
				cr.pool.Put(&buf)
				return nil, io.EOF
			}
			// Final chunk: the trailing record needs no terminator.
			c := &Chunk{Data: data, Index: cr.idx, buf: buf, pool: cr.pool}
			cr.idx++
			return c, nil
		}
		cut := lastRecordEnd(data, cr.mode)
		if cut > 0 {
			cr.carry = append(cr.carry[:0], data[cut:]...)
			c := &Chunk{Data: data[:cut], Index: cr.idx, buf: buf, pool: cr.pool}
			cr.idx++
			return c, nil
		}
		// No record terminator yet: a record larger than the chunk size.
		// Keep reading into a grown buffer until one appears (or EOF).
	}
}

// lastRecordEnd returns the index just past the last record terminator
// in data, or 0 if none. data must start at a record boundary, so CSV
// quote parity starts closed: a newline terminates a record exactly when
// an even number of '"' precede it. Walking candidates from the end with
// the vectorized LastIndexByte/Count keeps the single producer goroutine
// off a per-byte loop — the last newline almost always qualifies.
func lastRecordEnd(data []byte, mode ChunkMode) int {
	if mode == ChunkText {
		return bytes.LastIndexByte(data, '\n') + 1
	}
	quotes := bytes.Count(data, quoteSep) // quotes before end
	end := len(data)
	for {
		i := bytes.LastIndexByte(data[:end], '\n')
		if i < 0 {
			return 0
		}
		quotes -= bytes.Count(data[i:end], quoteSep)
		if quotes&1 == 0 {
			return i + 1
		}
		end = i
	}
}

// SkipFirstRecord returns the index just past the first record
// terminator in data (for header stripping), or len(data) when the data
// holds a single unterminated record.
func SkipFirstRecord(data []byte, mode ChunkMode) int {
	if nl, _ := nextTerminator(data, 0, mode == ChunkCSV); nl >= 0 {
		return nl + 1
	}
	return len(data)
}
