package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/rows"
)

// Streamed ingest (§4.4, §6.3.2): file-backed sources are not
// materialized up front. A producer goroutine streams record-aligned
// chunks off disk (csvio.ChunkReader) through a bounded channel; each
// chunk becomes one partition, parsed and pushed through the compiled
// normal path by whichever executor picks it up (on a batch plan, a
// batch of records per csvio.ParseChunk call). Disk I/O, record
// splitting, generated parsing and UDF execution overlap, and
// partition count is dynamic — it grows with the input instead of being
// fixed by an upfront scan.
//
// Order keys: a streamed partition p assigns row i the key p<<32|i, so
// keys are monotone in input order both within a partition and across
// partitions (unique terminals and the ordered merge rely on this).

// streamKeyShift positions the partition index above the in-chunk row
// index in streamed order keys.
const streamKeyShift = 32

// streamSource is a chunked file-backed source mid-stream: bind has
// read the sampling prefix, the rest is produced during execution.
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
	// headerNames are the column names from the first file's header row.
	headerNames []string
}

func (ss *streamSource) close() {
	for _, c := range ss.prefix {
		c.Release()
	}
	ss.prefix, ss.sample = nil, nil
	ss.prod.close()
}

// openStreamSource opens a (possibly multi-file) source for chunked
// ingest and reads just enough prefix chunks to sample the normal case.
func (eng *engine) openStreamSource(pathSpec string, delim byte, header bool, mode csvio.ChunkMode) (*streamSource, error) {
	paths := strings.Split(pathSpec, ",")
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
	}
	if eng.mon != nil {
		// Known input size gives the progress view an ETA; the stat is
		// skipped entirely on unmonitored runs.
		for _, p := range paths {
			if fi, err := os.Stat(p); err == nil {
				eng.mon.AddTotalBytes(fi.Size())
			}
		}
	}
	size := eng.opts.ChunkSize
	if size <= 0 {
		size = csvio.DefaultChunkSize
	}
	prod := &chunkProducer{
		paths: paths,
		mode:  mode,
		delim: delim,
		strip: header,
		size:  size,
		pool:  csvio.NewChunkPool(size),
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

// chunkProducer iterates record-aligned chunks over a list of files,
// stripping each file's header record when asked. Chunks never span
// files (matching the materialized per-file record split).
type chunkProducer struct {
	paths []string
	mode  csvio.ChunkMode
	delim byte
	strip bool
	size  int
	pool  *sync.Pool

	fileIdx     int
	f           *os.File
	cr          *csvio.ChunkReader
	firstOfFile bool
	headerNames []string
	closedBytes int64
}

// next returns the next chunk, (nil, nil) after the last file, or a read
// error.
func (p *chunkProducer) next() (*csvio.Chunk, error) {
	for {
		if p.cr == nil {
			if p.fileIdx >= len(p.paths) {
				return nil, nil
			}
			f, err := os.Open(p.paths[p.fileIdx])
			if err != nil {
				return nil, fmt.Errorf("core: reading %s: %w", p.paths[p.fileIdx], err)
			}
			p.f = f
			p.cr = csvio.NewChunkReader(f, p.mode, p.size, p.pool)
			p.firstOfFile = true
		}
		c, err := p.cr.Next()
		if errors.Is(err, io.EOF) {
			p.closedBytes += p.cr.BytesRead()
			p.f.Close()
			p.f, p.cr = nil, nil
			p.fileIdx++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", p.paths[p.fileIdx], err)
		}
		if p.firstOfFile {
			p.firstOfFile = false
			if p.strip {
				cut := csvio.SkipFirstRecord(c.Data, p.mode)
				if p.headerNames == nil {
					p.headerNames = csvio.SplitCells(trimRecord(c.Data[:cut]), p.delim, nil)
				}
				c.Data = c.Data[cut:]
				if len(c.Data) == 0 {
					// Header-only chunk (or header-only file).
					c.Release()
					continue
				}
			}
		}
		return c, nil
	}
}

// bytesRead reports raw bytes consumed across all files so far.
func (p *chunkProducer) bytesRead() int64 {
	n := p.closedBytes
	if p.cr != nil {
		n += p.cr.BytesRead()
	}
	return n
}

func (p *chunkProducer) close() {
	if p.f != nil {
		p.f.Close()
		p.f, p.cr = nil, nil
	}
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

// chunkTask is one streamed partition in flight.
type chunkTask struct {
	part  int
	chunk *csvio.Chunk
}

// executeStreamed drives a streamed source stage: one producer reading
// chunks, opts.Executors workers consuming them through a bounded
// channel. The first worker error (or producer error) stops the
// producer and drains the channel so large inputs fail fast.
func (eng *engine) executeStreamed(sr *stageRun) (*mat, error) {
	ss := sr.stream

	workers := eng.opts.Executors
	if workers < 1 {
		workers = 1
	}
	taskCh := make(chan chunkTask, workers)
	var stop atomic.Bool
	var prodErr error

	go func() {
		defer close(taskCh)
		// The sampling prefix was already read off disk; publish those
		// bytes before queueing so a sampler never observes processed
		// rows with zero ingest progress (the batch kernels finish the
		// first chunks faster than the producer reads the next one).
		eng.mon.StoreStreamBytes(ss.prod.bytesRead())
		part := 0
		for _, c := range ss.prefix {
			if stop.Load() {
				c.Release()
				continue
			}
			taskCh <- chunkTask{part: part, chunk: c}
			part++
		}
		ss.prefix, ss.sample = nil, nil
		for !ss.exhausted && !stop.Load() {
			if err := eng.canceled(); err != nil {
				prodErr = err
				stop.Store(true)
				return
			}
			c, err := ss.prod.next()
			if err != nil {
				prodErr = err
				stop.Store(true)
				return
			}
			if c == nil {
				return
			}
			// Publish in-flight bytes so the sampler sees ingest progress
			// before the stage folds it into the shared counter below.
			eng.mon.StoreStreamBytes(ss.prod.bytesRead())
			taskCh <- chunkTask{part: part, chunk: c}
			part++
		}
	}()

	var mu sync.Mutex
	var tasks []*task
	var workErr error
	recordsSplit := int64(0)

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := func(context.Context) {
				for t := range taskCh {
					if stop.Load() {
						t.chunk.Release()
						continue
					}
					if err := eng.canceled(); err != nil {
						t.chunk.Release()
						mu.Lock()
						if workErr == nil {
							workErr = err
						}
						mu.Unlock()
						stop.Store(true)
						continue
					}
					ts := sr.newTask(eng, t.part)
					ts.worker = w
					timed := eng.tr != nil || eng.mon != nil
					if timed {
						ts.start = time.Now()
					}
					eng.mon.TaskStart()
					var err error
					baseKey := uint64(t.part) << streamKeyShift
					switch {
					case sr.isText:
						err = sr.runRecords(ts, t.part, splitPlainLines(t.chunk.Data), baseKey, true)
					case sr.batch != nil:
						sr.runChunkColumnar(ts, t.part, t.chunk.Data, baseKey)
					default:
						err = sr.runRecords(ts, t.part, csvio.SplitRecords(t.chunk.Data), baseKey, true)
					}
					if timed {
						ts.dur = time.Since(ts.start)
					}
					eng.mon.TaskDone(ts.dur)
					t.chunk.Release()
					mu.Lock()
					if err != nil {
						if workErr == nil {
							workErr = err
						}
						stop.Store(true)
					} else {
						for t.part >= len(tasks) {
							tasks = append(tasks, nil)
						}
						tasks[t.part] = ts
						recordsSplit += ts.inRows
					}
					mu.Unlock()
				}
			}
			if eng.tr != nil {
				pprof.Do(context.Background(), pprof.Labels(
					"tuplex", "executor",
					"stage", strconv.Itoa(eng.stageSeq-1),
					"worker", strconv.Itoa(w)), body)
				return
			}
			body(context.Background())
		}(w)
	}
	wg.Wait()
	if prodErr != nil {
		return nil, prodErr
	}
	if workErr != nil {
		return nil, workErr
	}
	// Reset the in-flight counter before folding the stage's bytes into
	// the shared ingest counter: a sampler tick between the two lines
	// undercounts briefly instead of double-counting.
	eng.mon.StoreStreamBytes(0)
	eng.res.Metrics.Ingest.BytesRead.Add(ss.prod.bytesRead())
	eng.res.Metrics.Ingest.RecordsSplit.Add(recordsSplit)

	// Assemble the dynamic partitions into a materialization.
	nparts := len(tasks)
	out := &mat{
		schema:     sr.outSchema,
		parts:      make([][]rows.Row, nparts),
		keys:       make([][]uint64, nparts),
		nullValues: sr.nullValues,
		isCSV:      sr.sinkCSV,
	}
	if sr.sinkCSV {
		out.csvParts = make([][]byte, nparts)
		out.csvEnds = make([][]int, nparts)
	}
	for p, ts := range tasks {
		if ts == nil {
			return nil, fmt.Errorf("core: streamed partition %d missing", p)
		}
		out.parts[p] = ts.outRows
		out.keys[p] = ts.outKeys
		if ts.csvW != nil {
			out.csvParts[p] = ts.csvW.Take()
			out.csvEnds[p] = ts.lineEnds
		}
		out.exceptional = append(out.exceptional, ts.pool...)
	}
	sr.tasks = tasks
	if sr.terminal == physical.TerminalAggregate {
		out.isAgg = true
	}
	return out, nil
}
