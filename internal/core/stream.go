package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"github.com/gotuplex/tuplex/internal/csvio"
)

// Chunked ingest (§4.4): every CSV and text source — files or inline
// data — enters the engine the same way. A producer goroutine streams
// record-aligned chunks (csvio.ChunkReader) through a bounded channel;
// each chunk becomes one partition, parsed and pushed through the
// compiled normal path by whichever executor picks it up (on a batch
// plan, a batch of records per csvio.ParseChunk call). Disk I/O, record
// splitting, generated parsing and UDF execution overlap, and partition
// count is dynamic — it grows with the input instead of being fixed by
// an upfront scan.
//
// Order keys: a streamed partition p assigns row i the key p<<32|i, so
// keys are monotone in input order both within a partition and across
// partitions (unique terminals and the ordered merge rely on this).

// streamKeyShift positions the partition index above the in-chunk row
// index in streamed order keys.
const streamKeyShift = 32

// minChunkSize floors the derived chunk size: below it, per-task
// overhead outweighs the parallelism a smaller chunk would expose.
const minChunkSize = 64 << 10

// streamSource is a chunked source mid-stream: bind has read the
// sampling prefix, the rest is produced during execution.
type streamSource struct {
	prod *chunkProducer
	// prefix holds the chunks consumed while sampling; they are emitted
	// as the first partitions so no byte is read twice.
	prefix []*csvio.Chunk
	// sample holds the first records of the prefix, as many as sampling
	// reads; they alias the prefix chunks.
	sample [][]byte
	// exhausted reports that the prefix covers the whole input.
	exhausted bool
	// headerNames are the column names from the first input's header row.
	headerNames []string
}

func (ss *streamSource) close() {
	for _, c := range ss.prefix {
		c.Release()
	}
	ss.prefix, ss.sample = nil, nil
	ss.prod.close()
}

// chunkInput is one input of a source: a file, or inline bytes.
type chunkInput struct {
	path string
	data []byte // non-nil for inline data
}

// sourceInputs lists a source's inputs — its inline data, or the
// paper's ','.join(paths) multi-file spelling — and their total size.
func sourceInputs(pathSpec string, data []byte) ([]chunkInput, int64, error) {
	if data != nil {
		return []chunkInput{{data: data}}, int64(len(data)), nil
	}
	var ins []chunkInput
	var total int64
	for _, p := range strings.Split(pathSpec, ",") {
		p = strings.TrimSpace(p)
		fi, err := os.Stat(p)
		if err != nil {
			return nil, 0, fmt.Errorf("core: reading %s: %w", p, err)
		}
		ins = append(ins, chunkInput{path: p})
		total += fi.Size()
	}
	return ins, total, nil
}

// chunkSize derives a source's chunk size from its byte count — the byte
// form of partSize's rows/(4·Executors) rule, floored at minChunkSize
// and capped by Options.ChunkSize — so a small input still spreads over
// every executor and never takes a full-size chunk buffer. The quotient
// is padded by 1/16: each chunk's buffer also holds the partial record
// its predecessor cut off, and without slack those carries spill a
// sliver of the input into one extra, few-row chunk.
func (eng *engine) chunkSize(total int64) int {
	size := total / int64(4*eng.opts.Executors)
	size = max(size+size/16, minChunkSize)
	return int(min(size, int64(eng.opts.ChunkSize)))
}

// openStreamSource opens a CSV or text source for chunked ingest and
// reads just enough prefix chunks to sample the normal case.
func (eng *engine) openStreamSource(pathSpec string, data []byte, delim byte, header bool, mode csvio.ChunkMode) (*streamSource, error) {
	ins, total, err := sourceInputs(pathSpec, data)
	if err != nil {
		return nil, err
	}
	// Known input size gives the progress view an ETA.
	eng.mon.AddTotalBytes(total)
	size := eng.chunkSize(total)
	prod := &chunkProducer{
		inputs: ins,
		mode:   mode,
		delim:  delim,
		strip:  header,
		size:   size,
		pool:   csvio.NewChunkPool(size),
	}
	ss := &streamSource{prod: prod}
	if mode == csvio.ChunkText {
		// Text sources have a fixed schema; no sampling prefix needed.
		return ss, nil
	}
	// Split only the records sampling reads; the executors parse the
	// prefix chunks like every other chunk.
	need := eng.mkSampleCfg(nil).WithDefaults().Size
	for len(ss.sample) < need {
		c, err := prod.next()
		if err != nil {
			ss.close()
			return nil, err
		}
		if c == nil {
			ss.exhausted = true
			break
		}
		ss.prefix = append(ss.prefix, c)
		ss.sample = csvio.AppendRecords(ss.sample, c.Data, need-len(ss.sample))
	}
	ss.headerNames = prod.headerNames
	return ss, nil
}

// chunkProducer iterates record-aligned chunks over a source's inputs,
// stripping each input's header record when asked. Chunks never span
// inputs.
type chunkProducer struct {
	inputs []chunkInput
	mode   csvio.ChunkMode
	delim  byte
	strip  bool
	size   int
	pool   *sync.Pool

	inIdx        int
	f            *os.File // the open input file (nil for inline data)
	cr           *csvio.ChunkReader
	firstOfInput bool
	headerNames  []string
	closedBytes  int64
}

// next returns the next chunk, (nil, nil) after the last input, or a
// read error.
func (p *chunkProducer) next() (*csvio.Chunk, error) {
	for {
		if p.cr == nil {
			if p.inIdx >= len(p.inputs) {
				return nil, nil
			}
			var r io.Reader
			if in := p.inputs[p.inIdx]; in.data != nil {
				r = bytes.NewReader(in.data)
			} else {
				f, err := os.Open(in.path)
				if err != nil {
					return nil, fmt.Errorf("core: reading %s: %w", in.path, err)
				}
				p.f, r = f, f
			}
			p.cr = csvio.NewChunkReader(r, p.mode, p.size, p.pool)
			p.firstOfInput = true
		}
		c, err := p.cr.Next()
		if errors.Is(err, io.EOF) {
			p.closedBytes += p.cr.BytesRead()
			p.close()
			p.inIdx++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", p.inputs[p.inIdx].path, err)
		}
		if p.firstOfInput {
			p.firstOfInput = false
			if p.strip {
				cut := csvio.SkipFirstRecord(c.Data, p.mode)
				if p.headerNames == nil {
					p.headerNames = csvio.SplitCells(trimRecord(c.Data[:cut]), p.delim, nil)
				}
				c.Data = c.Data[cut:]
				if len(c.Data) == 0 {
					// Header-only chunk (or header-only input).
					c.Release()
					continue
				}
			}
		}
		return c, nil
	}
}

// bytesRead reports raw bytes consumed across all inputs so far.
func (p *chunkProducer) bytesRead() int64 {
	n := p.closedBytes
	if p.cr != nil {
		n += p.cr.BytesRead()
	}
	return n
}

// close releases the current input (idempotent).
func (p *chunkProducer) close() {
	if p.f != nil {
		p.f.Close()
	}
	p.f, p.cr = nil, nil
}

// trimRecord drops a record's trailing newline / CRLF.
func trimRecord(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}
