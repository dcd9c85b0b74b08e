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

// DefaultChunkSize is the streaming ingest chunk size (1 MiB): small
// enough that the first chunk — the sampling prefix — is read in about a
// millisecond and that a job holds only a few MiB of recycled buffers,
// large enough that a task's fixed cost stays small beside its parse.
const DefaultChunkSize = 1 << 20

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
	pool *ChunkPool
}

// Release returns the chunk's backing buffer to the pool for reuse.
func (c *Chunk) Release() {
	if c.pool != nil && c.buf != nil {
		c.pool.put(c.buf)
		c.buf, c.Data, c.pool = nil, nil, nil
	}
}

// ChunkPool recycles chunk buffers of one size. One pool can back many
// readers; a released chunk's buffer is the next chunk's, so a stream
// allocates only as many buffers as it holds at once, however many
// chunks it reads (buffers cycle producer → worker → pool). Unlike a
// sync.Pool it never drops a buffer to the collector, which would have to
// be faulted in and zeroed again.
type ChunkPool struct {
	size int

	mu      sync.Mutex
	free    [][]byte
	buffers int
}

// NewChunkPool returns a buffer pool for chunks of the given size (0
// uses DefaultChunkSize).
func NewChunkPool(size int) *ChunkPool {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &ChunkPool{size: size}
}

// Buffers reports how many buffers the pool has allocated.
func (p *ChunkPool) Buffers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buffers
}

func (p *ChunkPool) get() []byte {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		buf := p.free[k-1]
		p.free = p.free[:k-1]
		p.mu.Unlock()
		return buf
	}
	p.buffers++
	p.mu.Unlock()
	return make([]byte, p.size)
}

// put takes a buffer back; one grown past the pool's size for an
// oversized record is left to the collector.
func (p *ChunkPool) put(buf []byte) {
	if len(buf) != p.size {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}

// ChunkReader streams record-aligned chunks from r.
type ChunkReader struct {
	r    io.Reader
	mode ChunkMode
	size int
	pool *ChunkPool

	// carry holds the partial record trailing the last emitted chunk; it
	// is owned by the reader and prepended to the next chunk.
	carry []byte
	idx   int
	eof   bool
	bytes int64
}

// NewChunkReader wraps r. size is the target chunk size (0 uses
// DefaultChunkSize); pool supplies chunk buffers (nil allocates a
// private pool). A chunk fills one buffer, so a shared pool should be
// of the same size.
func NewChunkReader(r io.Reader, mode ChunkMode, size int, pool *ChunkPool) *ChunkReader {
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
	buf := cr.pool.get()
	if len(cr.carry) >= len(buf) {
		// A grown chunk left more carry than one buffer holds; take a
		// buffer with room for it and one read more.
		cr.pool.put(buf)
		buf = make([]byte, len(cr.carry)+cr.size)
	}
	data := buf[:copy(buf, cr.carry)]
	cr.carry = cr.carry[:0]
	// data[:scanned] holds no record terminator and quotes '"'.
	scanned, quotes := 0, 0
	for {
		if !cr.eof {
			// Fill the buffer (at least one read past the carried bytes).
			n, err := io.ReadFull(cr.r, buf[len(data):])
			data = buf[:len(data)+n]
			cr.bytes += int64(n)
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				cr.eof = true
			} else if err != nil {
				cr.pool.put(buf)
				return nil, err
			}
		}
		if cr.eof {
			if len(data) == 0 {
				cr.pool.put(buf)
				return nil, io.EOF
			}
			// Final chunk: the trailing record needs no terminator.
			c := &Chunk{Data: data, Index: cr.idx, buf: buf, pool: cr.pool}
			cr.idx++
			return c, nil
		}
		cut, q := lastRecordEnd(data, scanned, quotes, cr.mode)
		if cut > 0 {
			cr.carry = append(cr.carry[:0], data[cut:]...)
			c := &Chunk{Data: data[:cut], Index: cr.idx, buf: buf, pool: cr.pool}
			cr.idx++
			return c, nil
		}
		// No record terminator yet: a record larger than the buffer.
		// Double it and read on, rescanning nothing, so the record costs
		// time and memory linear in its size.
		scanned, quotes = len(data), q
		grown := make([]byte, 2*len(buf))
		copy(grown, data)
		cr.pool.put(buf)
		buf, data = grown, grown[:len(data)]
	}
}

// lastRecordEnd returns the index just past the last record terminator
// in data, or 0 if none, and the count of '"' in data. data must start
// at a record boundary, so CSV quote parity starts closed: a newline
// terminates a record exactly when an even number of '"' precede it.
// data[:from] holds no terminator and q '"' (an earlier scan of the same
// record), so only data[from:] is searched. Walking candidates from the
// end with the vectorized LastIndexByte/Count keeps the single producer
// goroutine off a per-byte loop — the last newline almost always
// qualifies.
func lastRecordEnd(data []byte, from, q int, mode ChunkMode) (cut, quotes int) {
	if mode == ChunkText {
		if i := bytes.LastIndexByte(data[from:], '\n'); i >= 0 {
			return from + i + 1, 0
		}
		return 0, 0
	}
	quotes = q + bytes.Count(data[from:], quoteSep)
	before := quotes // '"' before end
	end := len(data)
	for {
		i := bytes.LastIndexByte(data[from:end], '\n')
		if i < 0 {
			return 0, quotes
		}
		i += from
		before -= bytes.Count(data[i:end], quoteSep)
		if before&1 == 0 {
			return i + 1, quotes
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
