// Package core is Tuplex's execution engine: it samples inputs, compiles
// each stage's three code paths (normal / general / fallback), runs
// partitions across a pool of executor threads, collects exception rows
// post-facto, resolves them through the slower paths and user resolvers,
// and merges results in input order (§4.3–§4.6).
//
// The three paths and their engines:
//
//   - normal case:   internal/codegen — unboxed slot closures, return-code
//     exceptions ("LLVM fast path");
//   - general case:  a second plan of the stage, compiled by
//     internal/codegen at the general (Option) column types with no
//     sampled guards and run in batches (general.go), and
//     internal/interp.Compiled — closure-compiled over boxed values — row
//     by row for the rows that plan cannot take;
//   - fallback:      internal/interp tree-walking — the "Python
//     interpreter", always able to run any supported UDF.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/metrics"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// Options configures one execution.
type Options struct {
	// Executors is the worker-thread count (the paper's per-server
	// executor threads).
	Executors int
	// PartitionRows caps rows per partition task of a Parallelize
	// source; CSV and text sources partition by chunk (ChunkSize).
	PartitionRows int
	// Sample configures normal-case detection.
	Sample sample.Config
	// Logical toggles the planner rewrites.
	Logical logical.Options
	// Fusion keeps stages maximal (§6.3.2 ablation when false).
	Fusion bool
	// Codegen configures fast-path generation.
	Codegen codegen.Options
	// Seed seeds per-task PRNGs (random.choice reproducibility). A task's
	// stream depends on its partition index, and partition cuts depend on
	// Executors and ChunkSize, so output repeats only when those match.
	Seed uint64
	// RowPlane runs every stage on the row-at-a-time reference executor
	// (the compiled step chain over slot rows) instead of the batch plane
	// over column vectors. It exists for the columnar differentials,
	// which compare the batch plane against it; no public option or wire
	// field sets it, so the zero value is the production plane.
	RowPlane bool
	// ChunkSize caps the ingest chunk size in bytes (0 uses
	// csvio.DefaultChunkSize); each source derives its own size below it
	// from its byte count (engine.chunkSize).
	ChunkSize int
	// CollectLimit, when positive, caps the rows a collect sink boxes
	// into Result.Rows to the first CollectLimit of the output, so a
	// caller that returns a prefix (take, a service row cap) boxes and
	// retains only that prefix. Counters still count every row.
	CollectLimit int
	// Trace selects the run's observability level (internal/trace). The
	// default, trace.LevelSpans, records the span tree and per-task
	// timings with zero per-row overhead; trace.LevelOff disables the
	// tracer entirely.
	Trace trace.Level
	// Telemetry configures live monitoring (internal/telemetry). Off by
	// default; also forced on while an introspection server is active in
	// the process (telemetry.AutoEnabled).
	Telemetry telemetry.Config
	// Validate runs the whole-plan static verifier at each DataSet
	// operator chain step, failing construction on error-severity
	// findings (internal/plancheck; off by default).
	Validate bool
}

// DefaultOptions returns the fully-optimized single-threaded setup.
func DefaultOptions() Options {
	return Options{
		Executors:     1,
		PartitionRows: 1 << 16,
		Logical:       logical.AllOptimizations(),
		Fusion:        true,
		Codegen:       codegen.DefaultOptions(),
		Seed:          0x745,
		ChunkSize:     csvio.DefaultChunkSize,
		Trace:         trace.LevelSpans,
	}
}

func (o Options) withDefaults() Options {
	if o.Executors <= 0 {
		o.Executors = 1
	}
	if o.PartitionRows <= 0 {
		o.PartitionRows = 1 << 16
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = csvio.DefaultChunkSize
	}
	return o
}

// SinkKind selects the pipeline output form.
type SinkKind uint8

const (
	// SinkCollect returns boxed rows in the Result.
	SinkCollect SinkKind = iota
	// SinkCSV renders CSV bytes (and optionally writes them to a path).
	SinkCSV
)

// FailedRow describes an input row no path could process (§3: reported
// to the user, never crashing the pipeline).
type FailedRow struct {
	Exc   pyvalue.ExcKind
	Msg   string
	Input string
}

// Result is the outcome of one pipeline execution.
type Result struct {
	Schema *types.Schema
	// Rows holds the output rows in input order as plain Go values (the
	// form of rows.AnyValue): a collect sink's rows — the first
	// Options.CollectLimit of them when that is set — or an aggregate's
	// one-cell accumulator row. Collected strings share the engine's
	// output buffers, which nothing else references or mutates.
	Rows    [][]any
	CSV     []byte
	Failed  []FailedRow
	Metrics *metrics.Metrics
	// Trace is the run's observability trace (nil when Options.Trace is
	// trace.LevelOff).
	Trace *trace.Trace
	// Warnings carries advisory messages (e.g. the §7 all-exceptions
	// sample warning).
	Warnings []string
}

// ErrCanceled reports that an execution stopped because its context was
// canceled or its deadline expired. Errors returned by the context-aware
// entry points wrap it, so callers test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("execution canceled")

// Execute runs the plan rooted at sink.
func Execute(sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), sinkNode, kind, csvPath, opts)
}

// ExecuteContext runs the plan rooted at sink under ctx. Cancellation is
// observed at chunk/task boundaries (never per row), so a canceled run
// stops within one partition's worth of work and returns an error
// wrapping ErrCanceled.
func ExecuteContext(ctx context.Context, sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, error) {
	res, _, err := CompileAndExecute(ctx, sinkNode, kind, csvPath, opts)
	return res, err
}

// CompileAndExecute runs the plan like ExecuteContext and also returns
// the CompiledPlan the run filled in: it starts from an empty plan,
// compiles each stage as the stage loop first reaches it, and the
// result can be re-executed against fresh inputs with
// (*CompiledPlan).Execute, skipping sampling and compilation.
func CompileAndExecute(ctx context.Context, sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, *CompiledPlan, error) {
	cp := &CompiledPlan{opts: opts.withDefaults(), kind: kind}
	res, err := cp.run(ctx, sinkNode, csvPath, "")
	if err != nil {
		return nil, nil, err
	}
	return res, cp, nil
}

func sinkName(kind SinkKind) string {
	if kind == SinkCSV {
		return "csv"
	}
	return "collect"
}

// engine carries run-wide state.
type engine struct {
	// ctx is the run's cancellation context (nil means background).
	// Checked at chunk/task boundaries only, never per row.
	ctx  context.Context
	opts Options
	res  *Result
	// tr is the run tracer (nil when tracing is off), stageSeq a run-wide
	// stage counter.
	tr       *trace.Tracer
	stageSeq int
	// mon is the live-monitoring hook (nil when telemetry is off; all
	// its methods are nil-safe).
	mon *telemetry.RunMonitor
	// warns collects advisory messages with per-source caps; Execute
	// flushes it into Result.Warnings.
	warns warnings
	// generalCut is the raw-row count from which a pool runs through the
	// stage's general plan (0: generalMinPool; a test hook changes it).
	generalCut int
}

// canceled returns the run's cancellation error when eng.ctx is done,
// nil otherwise. Call sites sit at partition/chunk/stage boundaries so
// the per-row hot paths stay uninstrumented.
func (eng *engine) canceled() error {
	if eng.ctx == nil {
		return nil
	}
	select {
	case <-eng.ctx.Done():
		return fmt.Errorf("core: %w: %w", ErrCanceled, context.Cause(eng.ctx))
	default:
		return nil
	}
}

// exRow is one pooled exception row awaiting slow-path processing.
type exRow struct {
	part int
	key  uint64
	// vals is the boxed stage-input row (nil when raw is the source
	// record still to be parsed generally).
	vals []pyvalue.Value
	raw  []byte
	ec   pyvalue.ExcKind
	// op is the routing-ledger index of the operator the row raised at
	// (0 = source/parse; rows carried over from a previous stage keep 0).
	op int32
}

// mat is a stage's materialized output: rows between stages, or a final
// stage's sink form.
type mat struct {
	schema *types.Schema
	// keys are the order keys of each partition's normal-case rows, held
	// as slot rows in parts (emitRows), as column vectors in vecs
	// (emitVecs) or as rendered CSV in csvParts (emitCSV).
	keys  [][]uint64
	parts [][]rows.Row
	vecs  []colSegs
	// exceptional rows carry boxed data outside the normal case.
	exceptional []exRow
	// csvParts/csvEnds hold per-partition rendered CSV (streaming sink):
	// csvEnds[i] records the byte offset after each row in csvParts[i].
	csvParts [][]byte
	csvEnds  [][]int
	// delimiter/nullValues propagate source config for exception parsing.
	nullValues []string
	// aggregate terminal result (when the producing stage aggregated).
	aggValue pyvalue.Value
	isAgg    bool
}

// runChain executes one chain of stages and returns the final
// materialization.
func (eng *engine) runChain(c *chainPlan) (*mat, error) {
	eng.res.Metrics.Stages += len(c.stages)
	eng.mon.SetStages(eng.res.Metrics.Stages)
	var cur *mat
	for _, sl := range c.stages {
		if err := eng.canceled(); err != nil {
			return nil, err
		}
		var err error
		cur, err = eng.runStage(sl, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// runStage is the stage loop's body, the same for every run: bind the
// source, run the join build sides (§4.5: every path of a build side
// finishes before the probe side starts), compile the stage if its plan
// slot is still empty, then execute and resolve.
func (eng *engine) runStage(sl *stageSlot, input *mat) (*mat, error) {
	stageIdx := eng.stageSeq
	eng.stageSeq++
	eng.mon.SetStage(stageIdx)
	ssp := eng.tr.Begin("stage",
		trace.Int("index", int64(stageIdx)),
		trace.Int("ops", int64(len(sl.st.Ops))))

	tBind := time.Now()
	sr, err := eng.bind(sl.st.Source, input)
	if err != nil {
		return nil, err
	}
	defer sr.closeSource()
	dBind := time.Since(tBind)
	for _, jb := range sl.builds {
		bt, err := eng.buildJoinTable(jb)
		if err != nil {
			return nil, err
		}
		sr.joins = append(sr.joins, bt)
	}
	if sl.plan == nil {
		tCompile := time.Now()
		pl, dSample, err := eng.compileStage(sl, sr)
		if err != nil {
			return nil, err
		}
		sl.plan = pl
		dCompile := time.Since(tCompile) - dSample
		if dSample > 0 {
			// Reading the sampling prefix is part of sampling.
			dSample += dBind
			eng.res.Metrics.Timings.Sample += dSample
			eng.tr.Child("sample", dSample)
		}
		eng.res.Metrics.Timings.Compile += dCompile
		cattrs := []trace.Attr{trace.Int("udfs", int64(pl.nUDFs))}
		if km := pl.kernelModes(); km != "" {
			cattrs = append(cattrs, trace.Str("kernels", km))
		}
		eng.tr.Child("compile", dCompile, cattrs...)
	}
	sr.slot = sl
	sr.attach(sl.plan)
	return eng.execAndResolve(sr, ssp)
}

// execAndResolve runs a bound, compiled stage's partitions and the
// post-facto exception-resolution pass, closing the stage span.
func (eng *engine) execAndResolve(sr *stageRun, ssp *trace.Span) (*mat, error) {
	esp := eng.tr.Begin("execute")
	tExec := time.Now()
	bytes0 := eng.res.Metrics.Ingest.BytesRead.Load()
	rows0 := eng.res.Metrics.Counters.InputRows.Load()
	bm := &eng.res.Metrics.Batch
	columnar0 := bm.ColumnarRows.Load()
	fused0, elided0, checked0 := bm.FusedPasses.Load(), bm.NullElisions.Load(), bm.NullChecked.Load()
	vector0, vbail0 := bm.VectorRows.Load(), bm.VectorBailRows.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	out, err := eng.executeStage(sr)
	if err != nil {
		return nil, err
	}
	dExec := time.Since(tExec)
	runtime.ReadMemStats(&ms)
	eng.res.Metrics.Timings.Execute += dExec
	eng.res.Metrics.Stage = append(eng.res.Metrics.Stage, metrics.StageIngest{
		Stage:    len(eng.res.Metrics.Stage),
		Bytes:    eng.res.Metrics.Ingest.BytesRead.Load() - bytes0,
		Records:  eng.res.Metrics.Counters.InputRows.Load() - rows0,
		Allocs:   int64(ms.Mallocs - mallocs0),
		Duration: dExec,
	})
	// Stage-delta batch-plane attrs: how much of this stage ran
	// column-at-a-time and whether the no-null kernel variants kicked in.
	if columnar := bm.ColumnarRows.Load() - columnar0; columnar > 0 {
		esp.Add(trace.Int("columnar_rows", columnar),
			trace.Int("fused_passes", bm.FusedPasses.Load()-fused0),
			trace.Int("null_elisions", bm.NullElisions.Load()-elided0),
			trace.Int("null_checked", bm.NullChecked.Load()-checked0),
			trace.Int("vector_rows", bm.VectorRows.Load()-vector0),
			trace.Int("vector_bail_rows", bm.VectorBailRows.Load()-vbail0))
	}
	if esp != nil && sr.parse != nil && sr.batch != nil {
		// Streamed records the chunk parser handed whole to the
		// per-record parser: a '"' that does not open a cell.
		var slow int64
		for _, ts := range sr.tasks {
			if ts != nil {
				slow += ts.parseSlow
			}
		}
		esp.Add(trace.Int("parse_slow_records", slow))
	}
	if esp != nil {
		esp.Tasks = eng.taskTimings(sr.tasks)
	}
	eng.tr.End(esp)

	// Post-facto exception resolution (§4.3): general path, then
	// fallback, then user resolvers along the way. A general plan built
	// here is resolve's time, and its analyze spans are resolve's
	// children.
	rsp := eng.tr.Begin("resolve")
	tRes := time.Now()
	gs, err := eng.resolveExceptions(sr, out)
	if err != nil {
		return nil, err
	}
	dRes := time.Since(tRes)
	eng.res.Metrics.Timings.Resolve += dRes
	rsp.Add(trace.Int("pool", int64(sr.poolSize)),
		trace.Int("batched", int64(gs.batched)),
		trace.Int("per_row", int64(sr.poolSize-gs.batched)),
		trace.Str("general_compile_ms", fmt.Sprintf("%.2f", gs.compile.Seconds()*1e3)))
	eng.tr.End(rsp)
	if eng.tr.Rows() {
		ssp.Routing = sr.mergedRouting()
	}
	if eng.tr.Samples() {
		ssp.Samples = sr.samples
	}
	eng.tr.End(ssp)
	return out, nil
}

// taskTimings converts the stage's finished tasks into span timings.
func (eng *engine) taskTimings(tasks []*task) []trace.TaskTiming {
	if eng.tr == nil {
		return nil
	}
	out := make([]trace.TaskTiming, 0, len(tasks))
	for _, ts := range tasks {
		if ts == nil {
			continue
		}
		out = append(out, trace.TaskTiming{
			Part:    ts.part,
			Worker:  ts.worker,
			Rows:    ts.inRows,
			StartNS: eng.tr.OffsetNS(ts.start),
			DurNS:   ts.dur.Nanoseconds(),
		})
	}
	return out
}

// unit is one partition of work for the executor loop: an in-memory
// partition (chunk nil) or a streamed chunk, part being its sequence
// number.
type unit struct {
	part  int
	chunk *csvio.Chunk
}

func (u unit) release() {
	if u.chunk != nil {
		u.chunk.Release()
	}
}

// executeStage drives a stage's units through the compiled normal path
// on opts.Executors workers. In-memory partitions (Parallelize sources,
// interior stages) are queued up front; a byte source gets a producer
// goroutine that queues chunks through the bounded channel as it reads
// them. The first error (a read failure or cancellation) stops the
// producer and drains the channel so large inputs fail fast.
func (eng *engine) executeStage(sr *stageRun) (*mat, error) {
	workers := eng.opts.Executors
	var units chan unit
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	if ss := sr.stream; ss != nil {
		// One queued chunk per worker keeps every executor fed while
		// bounding the chunk buffers in flight.
		units = make(chan unit, workers)
		go func() {
			defer close(units)
			// The sampling prefix was already read; publish those bytes
			// before queueing so a sampler never observes processed rows
			// with zero ingest progress (the batch kernels finish the first
			// chunks faster than the producer reads the next one).
			eng.mon.StoreStreamBytes(ss.prod.bytesRead())
			part := 0
			for _, c := range ss.prefix {
				if stop.Load() {
					c.Release()
					continue
				}
				units <- unit{part: part, chunk: c}
				part++
			}
			ss.prefix, ss.sample = nil, nil
			for !ss.exhausted && !stop.Load() {
				if err := eng.canceled(); err != nil {
					fail(err)
					return
				}
				c, err := ss.prod.next()
				if err != nil {
					fail(err)
					return
				}
				if c == nil {
					return
				}
				// Publish in-flight bytes so the sampler sees ingest
				// progress before the stage folds them into the shared
				// counter below.
				eng.mon.StoreStreamBytes(ss.prod.bytesRead())
				units <- unit{part: part, chunk: c}
				part++
			}
		}()
	} else {
		n := sr.numPartitions()
		workers = max(min(workers, n), 1)
		units = make(chan unit, n)
		for p := range n {
			units <- unit{part: p}
		}
		close(units)
	}

	var tasks []*task
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := func(context.Context) {
				for u := range units {
					if stop.Load() {
						u.release()
						continue
					}
					if err := eng.canceled(); err != nil {
						u.release()
						fail(err)
						continue
					}
					ts := sr.newTask(eng, u.part)
					ts.worker = w
					timed := eng.tr != nil || eng.mon != nil
					if timed {
						ts.start = time.Now()
					}
					eng.mon.TaskStart()
					sr.runUnit(ts, u)
					if timed {
						ts.dur = time.Since(ts.start)
					}
					eng.mon.TaskDone(ts.dur)
					u.release()
					mu.Lock()
					for u.part >= len(tasks) {
						tasks = append(tasks, nil)
					}
					tasks[u.part] = ts
					mu.Unlock()
				}
			}
			if eng.tr != nil {
				// pprof labels make executor goroutines attributable in CPU
				// profiles (tuplex=executor, stage=N, worker=W).
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
	if firstErr != nil {
		return nil, firstErr
	}

	// Assemble the partitions, in order, into a materialization.
	nparts := len(tasks)
	out := &mat{
		schema:     sr.outSchema,
		keys:       make([][]uint64, nparts),
		nullValues: sr.nullValues,
		isAgg:      sr.terminal == physical.TerminalAggregate,
	}
	switch sr.emit {
	case emitRows:
		out.parts = make([][]rows.Row, nparts)
	case emitCSV:
		out.csvParts = make([][]byte, nparts)
		out.csvEnds = make([][]int, nparts)
	case emitVecs:
		out.vecs = make([]colSegs, nparts)
	}
	var records int64
	for p, ts := range tasks {
		if ts == nil {
			return nil, fmt.Errorf("core: partition %d missing", p)
		}
		out.keys[p] = ts.outKeys
		switch sr.emit {
		case emitRows:
			out.parts[p] = ts.outRows
		case emitCSV:
			out.csvParts[p] = ts.csvW.Take()
			out.csvEnds[p] = ts.lineEnds
		case emitVecs:
			out.vecs[p] = ts.outVecs
		}
		out.exceptional = append(out.exceptional, ts.pool...)
		records += ts.inRows
	}
	sr.tasks = tasks
	if sr.stream != nil {
		// Reset the in-flight counter before folding the stage's bytes
		// into the shared ingest counter: a sampler tick between the two
		// lines undercounts briefly instead of double-counting.
		eng.mon.StoreStreamBytes(0)
		eng.res.Metrics.Ingest.BytesRead.Add(sr.stream.prod.bytesRead())
		eng.res.Metrics.Ingest.RecordsSplit.Add(records)
	}
	return out, nil
}

// finish converts the final materialization into the requested sink
// form. A final stage that emitted rows (a trailing unique or cache)
// gets its sink form here.
func (eng *engine) finish(out *mat, kind SinkKind, csvPath string, res *Result) error {
	res.Schema = out.schema
	if out.isAgg {
		// Aggregate results: one row holding the accumulator.
		res.Rows = [][]any{{rows.AnyValue(out.aggValue)}}
		if kind == SinkCSV {
			return fmt.Errorf("core: tocsv on an aggregate result is not supported; use collect")
		}
		return nil
	}
	switch kind {
	case SinkCollect:
		if out.vecs == nil {
			out.vecs = rowVecs(out)
		}
		var total int64
		res.Rows, total = eng.boxCollect(out)
		eng.res.Metrics.Counters.OutputRows.Add(total)
		return nil
	case SinkCSV:
		if out.csvParts == nil {
			eng.renderRows(out)
		}
		// Rows were rendered inside the partition tasks; stitch buffers
		// per partition in parallel (splicing exception-path rows into
		// position where needed), then concatenate in partition order.
		exByPart := out.exceptionsByPart()
		stitched := make([][]byte, len(out.csvParts))
		counts := make([]int64, len(out.csvParts))
		eng.parallelFor(len(out.csvParts), func(p int) {
			buf, ends := out.csvParts[p], out.csvEnds[p]
			keysP := out.keys[p]
			exs := exByPart[p]
			if len(exs) == 0 {
				stitched[p] = buf
				counts[p] = int64(len(ends))
				return
			}
			sortExRows(exs)
			pw := csvio.NewWriterBuf(',', getCSVBuf())
			pw.Grow(len(buf) + len(exs)*64)
			i, j := 0, 0
			for i < len(ends) || j < len(exs) {
				if j >= len(exs) || (i < len(ends) && keysP[i] <= exs[j].key) {
					start := 0
					if i > 0 {
						start = ends[i-1]
					}
					pw.WriteRaw(buf[start:ends[i]])
					i++
				} else {
					pw.WriteValues(exs[j].vals)
					j++
				}
				counts[p]++
			}
			stitched[p] = pw.Take()
			putCSVBuf(buf) // task buffer fully copied into pw
		})
		w := newCSVWriterFor(out.schema)
		tot := 0
		for p := range stitched {
			tot += len(stitched[p])
		}
		w.Grow(tot)
		n := int64(0)
		for p := range stitched {
			w.WriteRaw(stitched[p])
			n += counts[p]
			putCSVBuf(stitched[p]) // copied into w; recycle for future tasks
		}
		eng.res.Metrics.Counters.OutputRows.Add(n)
		res.CSV = w.Take()
		if csvPath != "" {
			if err := os.WriteFile(csvPath, res.CSV, 0o644); err != nil {
				return fmt.Errorf("core: writing %s: %w", csvPath, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown sink kind %d", kind)
	}
}

// exceptionsByPart groups the resolved exception rows by the partition
// they merge into.
func (out *mat) exceptionsByPart() [][]exRow {
	byPart := make([][]exRow, len(out.keys))
	for _, ex := range out.exceptional {
		byPart[ex.part] = append(byPart[ex.part], ex)
	}
	return byPart
}

// boxCollect is the collect sink's merge (§4.3 "Merge Rows"). Per
// partition, in parallel, it interleaves the output vectors' rows with
// the partition's resolved exception rows by order key and boxes the
// merged rows through a Boxer presized to exactly the cells it boxes, so
// no slab reallocates. Boxing waits for finish rather than running in
// the tasks: pointer-dense boxed rows alive during the stage would be
// marked by every collection the stage triggers. Under
// Options.CollectLimit only the output's first rows are boxed. It
// returns the boxed rows and the output's row count.
func (eng *engine) boxCollect(out *mat) ([][]any, int64) {
	exByPart := out.exceptionsByPart()
	// offs[p] is partition p's first row in the output.
	offs := make([]int, len(out.keys)+1)
	for p := range out.keys {
		offs[p+1] = offs[p] + len(out.keys[p]) + len(exByPart[p])
	}
	total := offs[len(out.keys)]
	n := total
	if lim := eng.opts.CollectLimit; lim > 0 && lim < n {
		n = lim
	}
	boxed := make([][]any, n)
	eng.parallelFor(len(out.keys), func(p int) {
		if lo, hi := min(offs[p], n), min(offs[p+1], n); lo < hi {
			boxPart(boxed[lo:hi], out.vecs[p], out.schema.Len(), out.keys[p], exByPart[p])
		}
	})
	return boxed, int64(total)
}

// boxPart boxes the first len(dst) rows of one partition's output: its
// vector rows (nc columns, order keys keys) merged with its exception
// rows exs by key. Cells box a row at a time, filling the []any slab in
// order (a column at a time strides across it and is ~1.7× slower).
func boxPart(dst [][]any, segs colSegs, nc int, keys []uint64, exs []exRow) {
	sortExRows(exs)
	// exNext reports whether the merge takes exception row j before
	// vector row i: normal rows win ties, as on the CSV sink.
	exNext := func(i, j int) bool {
		return j < len(exs) && (i == len(keys) || exs[j].key < keys[i])
	}
	// dst takes the first nn vector rows and the first exception rows,
	// whose cells add up to exCells.
	nn, exCells := 0, 0
	for k := range dst {
		if j := k - nn; exNext(nn, j) {
			exCells += len(exs[j].vals)
		} else {
			nn++
		}
	}
	// The segments holding those nn rows. Boxed strings share the
	// vectors' bytes, so the segment the cut falls in is clipped to let
	// go of the rows past it.
	var kept colSegs
	for rest := nn; rest > 0 && nc > 0; {
		seg := segs[len(kept)]
		if seg[0].Len() > rest {
			for _, v := range seg {
				v.Clip(rest)
			}
		}
		kept = append(kept, seg)
		rest -= seg[0].Len()
	}
	var b rows.Boxer
	var ints, floats, strs int
	for _, seg := range kept {
		for _, v := range seg {
			i, f, s := v.SlabCells(v.Len())
			ints, floats, strs = ints+i, floats+f, strs+s
		}
	}
	b.Reserve(nn*nc+exCells, ints, floats, strs)
	cells := b.Cells(nn * nc)
	at := 0
	for _, seg := range kept {
		for i := range seg[0].Len() {
			for _, v := range seg {
				cells[at] = v.Box(&b, i)
				at++
			}
		}
	}
	i, j := 0, 0
	for k := range dst {
		if exNext(i, j) {
			row := b.Cells(len(exs[j].vals))
			for c, v := range exs[j].vals {
				row[c] = rows.AnyValue(v)
			}
			dst[k] = row
			j++
		} else {
			dst[k] = cells[i*nc : (i+1)*nc : (i+1)*nc]
			i++
		}
	}
}

// colSegs is a partition's collect-sink output in row order: column
// vectors, one set per batch.
type colSegs [][]*colvec.Vec

// newVecs returns empty vectors for the schema's columns.
func newVecs(schema *types.Schema) []*colvec.Vec {
	vecs := make([]*colvec.Vec, schema.Len())
	for c := range vecs {
		vecs[c] = colvec.NewVec(schema.Col(c).Type)
	}
	return vecs
}

// rowVecs copies a rows materialization into column vectors for the
// collect sink.
func rowVecs(out *mat) []colSegs {
	segs := make([]colSegs, len(out.parts))
	for p, part := range out.parts {
		vecs := newVecs(out.schema)
		for c, v := range vecs {
			for _, r := range part {
				v.AppendCell(r[c])
			}
		}
		segs[p] = colSegs{vecs}
	}
	return segs
}

// renderRows renders a rows materialization per partition for the CSV
// sink, as its tasks would have.
func (eng *engine) renderRows(out *mat) {
	out.csvParts = make([][]byte, len(out.parts))
	out.csvEnds = make([][]int, len(out.parts))
	eng.parallelFor(len(out.parts), func(p int) {
		w := csvio.NewWriterBuf(',', getCSVBuf())
		ends := make([]int, len(out.parts[p]))
		for i, r := range out.parts[p] {
			w.WriteRow(r)
			ends[i] = w.Len()
		}
		out.csvParts[p], out.csvEnds[p] = w.Take(), ends
	})
}

// parallelFor runs fn over [0, n) across the engine's executor threads.
// fn must only touch index-disjoint state.
func (eng *engine) parallelFor(n int, fn func(i int)) {
	workers := eng.opts.Executors
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func sortExRows(exs []exRow) {
	// Insertion sort: exception lists are short by design.
	for i := 1; i < len(exs); i++ {
		for j := i; j > 0 && exs[j].key < exs[j-1].key; j-- {
			exs[j], exs[j-1] = exs[j-1], exs[j]
		}
	}
}

func typeOfBoxed(v pyvalue.Value) types.Type {
	switch v := v.(type) {
	case pyvalue.None:
		return types.Null
	case pyvalue.Bool:
		return types.Bool
	case pyvalue.Int:
		return types.I64
	case pyvalue.Float:
		return types.F64
	case pyvalue.Str:
		return types.Str
	case *pyvalue.List:
		var u types.Type
		for _, it := range v.Items {
			u = types.Unify(u, typeOfBoxed(it))
		}
		if !u.IsValid() {
			u = types.Any
		}
		return types.List(u)
	case *pyvalue.Tuple:
		elts := make([]types.Type, len(v.Items))
		for i, it := range v.Items {
			elts[i] = typeOfBoxed(it)
		}
		return types.Tuple(elts...)
	default:
		return types.Any
	}
}
