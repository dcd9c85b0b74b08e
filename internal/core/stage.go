package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// ECode aliases the return-code exception representation.
type ECode = codegen.ECode

// csvBufPool recycles task CSV output buffers across tasks and runs. A
// steady-state buffer is already output-sized, so sink rendering avoids
// both doubling-growth copies and the runtime's large-allocation
// zeroing, which otherwise dominate the sink path's profile.
var csvBufPool sync.Pool // holds *[]byte

func getCSVBuf() []byte {
	if p, _ := csvBufPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putCSVBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	csvBufPool.Put(&b)
}

// nstep is one compiled normal-path step (push model: each step calls
// the next; a nonzero return code aborts the row, which the driver then
// pools).
type nstep func(ts *task, key uint64, row rows.Row) ECode

// opHandlers are the resolvers/ignores attached to one UDF operator.
type opHandlers struct {
	resolvers []resolverSpec
	ignores   []pyvalue.ExcKind
}

type resolverSpec struct {
	exc  pyvalue.ExcKind
	spec *logical.UDFSpec
	udf  *boxedUDF // nil in the plan's recipe (see boxedOp)
}

// stagePlan is the immutable compile product of one stage: everything
// sampling, inference and code generation decided, and nothing a run
// produces. Once compileStage returns it, it is only read — by the run
// that compiled it and by every later run of the same CompiledPlan,
// concurrently. It deliberately has no field that could hold a source
// binding, a build table, a task or a routing ledger: compiled closures
// and batch kernels reach those through the *task they are handed
// (ts.run), so "shared vs. per-run" is a property of the types.
type stagePlan struct {
	terminal physical.TerminalKind

	// Source parsing (CSV/text source stages).
	parse   *csvio.ParseSpec
	isText  bool
	nFields int // projected parser field count

	inSchema   *types.Schema
	outSchema  *types.Schema
	nullValues []string
	// generalIn is the CSV stage input at the general schema
	// (sample.CasePlan.GeneralSchema over the projected columns).
	generalIn *types.Schema

	entry nstep // head of the compiled normal path
	// batch is the stage's columnar plan (CSV sources with Columnar on);
	// runRecords dispatches to it instead of the per-row entry chain.
	batch   *batchProg
	maxCols int
	nUDFs   int
	// emit is the form the stage's tasks write (stageSlot.emit).
	emit emitForm

	// recipe is the boxed-path program (general & fallback), parallel to
	// the stage ops, without interpreters: those are not thread-safe, so
	// every run (and every parallel resolve worker) instantiates its own
	// from it.
	recipe []*boxedOp

	// aggregate terminal
	aggInit     pyvalue.Value
	aggScalar   bool
	aggSlotType types.Type
	aggUDF      *stageUDF
	// aggFold is the aggregate UDF's vector fold (nil when its body is
	// outside codegen's fold table).
	aggFold  *codegen.VecFold
	combSpec *logical.UDFSpec

	// general is the stage's general-case plan (compileGeneral), built by
	// the first resolve whose pool warrants it, once for every run of the
	// plan (generalOnce); nil after that means the stage has none.
	// generalCase marks a plan that is itself one. noVec marks a plan
	// stripped of its vector programs (a test hook); a general plan built
	// later is stripped too.
	generalOnce sync.Once
	general     *stagePlan
	generalCase bool
	noVec       bool

	// Tracing layout. opNames names the routing-ledger entries: index 0
	// is the source/parse pseudo-op, 1..len(ops) follow the stage's
	// operators and the last entry is the terminal.
	opNames      []string
	traceRows    bool
	traceSamples bool
	termRouteIdx int32
}

// stageRun is one run's private state for one stage: the bound source,
// the join build tables, the boxed interpreters, and what execution
// leaves behind (tasks, routing ledger, exception samples). bind creates
// it before the stage's plan necessarily exists; attach points it at the
// plan it executes.
type stageRun struct {
	*stagePlan
	// slot is the plan-tree slot the run executes (compileGeneral reads
	// the stage's operators from it).
	slot *stageSlot

	// Source binding: stream for a CSV or text source, inputSlots for a
	// parallelize source, input for an interior stage; partRanges splits
	// the two in-memory bindings into partitions.
	stream     *streamSource // chunked ingest for CSV and text sources
	inputSlots []rows.Row    // parallelize source (unboxed slot rows)
	input      *mat          // previous stage's output (interior stages)
	partRanges [][2]int

	// joins holds this run's build tables, one per JoinOp in operator
	// order; join steps and kernels index it by their joinIdx.
	joins []*buildTable

	// Private boxed interpreters, instantiated from the plan's recipe.
	boxed     []*boxedOp
	aggBoxed  *boxedUDF
	combBoxed *boxedUDF

	tasks []*task
	// routing accumulates the serial resolve-phase outcomes (plus merged
	// per-task counters), samples the bounded exception-row sample.
	routing []trace.OpRouting
	samples []trace.ExcSample
	// poolSize is the stage's exception-pool size (set by
	// resolveExceptions, reported on the resolve span).
	poolSize int

	// bstPool recycles batch memory (parse vectors, derived vectors,
	// selection buffers) across the stage's tasks: string-vector byte
	// buffers reach steady capacity after a few chunks instead of
	// regrowing per task.
	bstPool sync.Pool
}

// attach points the run at the plan it executes and instantiates the
// per-run halves of it: private interpreters for the boxed paths and a
// fresh routing ledger.
func (sr *stageRun) attach(pl *stagePlan) {
	sr.stagePlan = pl
	sr.boxed = instantiateBoxed(pl.recipe)
	if pl.traceRows {
		sr.routing = make([]trace.OpRouting, len(pl.opNames))
		for i, n := range pl.opNames {
			sr.routing[i].Op = n
		}
		for _, op := range sr.boxed {
			op.stats = &boxedOpStats{}
		}
	}
	if pl.aggUDF != nil {
		sr.aggBoxed = newBoxedUDF(pl.aggUDF.spec)
	}
	if pl.combSpec != nil {
		sr.combBoxed = newBoxedUDF(pl.combSpec)
	}
}

// stageUDF is one operator's UDF as the plan holds it: the spec (the
// boxed paths instantiate interpreters from it per run) and the compiled
// normal-path form.
type stageUDF struct {
	spec     *logical.UDFSpec
	compiled *codegen.UDF // normal path; nil if not fast-path compilable
	// flow carries the dataflow analysis for the typed normal-case form
	// (nil when typing failed); consulted for dead-resolver warnings.
	flow *dataflow.Result
	// scalarParam reports that the UDF receives the bare column value
	// (single-column rows / mapColumn).
	scalarParam bool
	frameIdx    int
}

// task is per-partition execution state.
type task struct {
	eng *engine
	// run is the stage run this task belongs to — the only route from a
	// compiled step or kernel to per-run state such as join build tables.
	run  *stageRun
	part int

	frames  []*codegen.Frame
	scratch [][]rows.Slot
	rowBuf  []rows.Slot
	// keyBuf is the reusable scratch buffer for hash-key encodings (join
	// probes, unique terminal) — the hot paths never allocate per row.
	keyBuf []byte

	// outKeys are the order keys of the task's output rows, whatever
	// the stage emits: materialized outRows, outVecs or CSV lines.
	outKeys []uint64
	outRows []rows.Row
	// outSlab backs materialized outRows: rows append here and slice
	// capped views out, so materializing costs one amortized slab per
	// task instead of one allocation per row.
	outSlab []rows.Slot
	// outVecs are the collect sink's output columns (emitVecs).
	outVecs colSegs
	pool    []exRow

	// streaming CSV sink state
	csvW     *csvio.Writer
	lineEnds []int

	// bst is the lazily-created columnar batch memory (batch stages only).
	bst *batchState

	aggSlot rows.Slot
	hasAgg  bool

	uniq *uniqSet

	// probe counters accumulate locally and flush with the other
	// per-task counters (atomics per probe would dominate tight loops).
	probeHits, probeMisses int64

	// Batch-plane counters (columnar stages only). columnarRows counts
	// rows that completed the kernel prefix in vector form; bounced
	// counts rows handed to the row-at-a-time suffix at the stage
	// barrier; fusedPasses counts fused-group scans over a batch;
	// nullElided/nullChecked count batch-column dispatches that did /
	// did not take the no-null inner loop; vectorRows counts rows entering
	// a vector kernel or fold, vectorBail those it handed back to the row
	// closure.
	columnarRows, bounced   int64
	vectorRows, vectorBail  int64
	bouncedFlushed          int64
	fusedPasses             int64
	nullElided, nullChecked int64
	// parseSlow counts streamed records the chunk parser handed to the
	// per-record path (summed onto the stage's execute span).
	parseSlow int64

	// Tracing scratch. worker/start/dur/inRows feed the execute span's
	// task timings (filled only when the tracer is on). route/routeExc
	// are the task's routing-ledger counters, indexed like the plan's
	// opNames (nil below trace.LevelRows — the default path carries none
	// of this). excOp is the ledger index of the operator that raised the
	// current row's normal-path exception; every raise site stores it,
	// so it is valid exactly when the entry chain returns nonzero.
	worker   int
	start    time.Time
	dur      time.Duration
	inRows   int64
	route    []int64
	routeExc []int64
	excOp    int32
	// rejects tallies why the task's classifier rejects left the normal
	// case (trace.OpRouting.Rejects; LevelRows only).
	rejects map[rejectWhy]int64
}

// rejectWhy is a classifier reject's cause: the parser field of its first
// cell that did not parse (-1: a wrong cell count) and that cell's kind.
type rejectWhy struct {
	field int
	cell  string
}

// countReject tallies a classifier reject's cause (at LevelRows only:
// naming it parses the record again).
func (sr *stageRun) countReject(ts *task, rec []byte) {
	field, cell := sr.parse.RejectCause(rec, ts.rowBuf[:sr.nFields])
	if ts.rejects == nil {
		ts.rejects = map[rejectWhy]int64{}
	}
	ts.rejects[rejectWhy{field, cell}]++
}

func (sr *stageRun) numPartitions() int { return len(sr.partRanges) }

func (sr *stageRun) newTask(eng *engine, part int) *task {
	ts := &task{eng: eng, run: sr, part: part}
	ts.frames = make([]*codegen.Frame, sr.nUDFs)
	for i := range ts.frames {
		ts.frames[i] = codegen.NewFrame(8)
		ts.frames[i].Rand = pyre.NewPRNG(eng.opts.Seed + uint64(part)*1000003 + uint64(i))
	}
	ts.scratch = make([][]rows.Slot, sr.nUDFs+4)
	ts.rowBuf = make([]rows.Slot, 0, sr.maxCols)
	ts.keyBuf = make([]byte, 0, 64)
	if sr.terminal == physical.TerminalUnique {
		ts.uniq = newUniqSet()
	}
	if sr.terminal == physical.TerminalAggregate {
		ts.aggSlot = coerceSlot(rows.FromValue(sr.aggInit), sr.aggSlotType)
		ts.hasAgg = true
	}
	if sr.emit == emitCSV {
		ts.csvW = csvio.NewWriterBuf(',', getCSVBuf())
	}
	if sr.traceRows {
		ts.route = make([]int64, len(sr.opNames))
		ts.routeExc = make([]int64, len(sr.opNames))
	}
	return ts
}

// routeWrap counts rows entering the wrapped step into the task's
// routing ledger. Wrappers are composed into the chain only at
// trace.LevelRows and above, so the default normal path is exactly the
// uninstrumented one.
func routeWrap(next nstep, ridx int32) nstep {
	return func(ts *task, key uint64, row rows.Row) ECode {
		ts.route[ridx]++
		return next(ts, key, row)
	}
}

// mergedRouting folds the per-task ledger counters and the boxed-path
// atomics into the stage ledger. Called serially after workers join.
func (sr *stageRun) mergedRouting() []trace.OpRouting {
	if sr.routing == nil {
		return nil
	}
	out := sr.routing
	for _, ts := range sr.tasks {
		if ts == nil || ts.route == nil {
			continue
		}
		for i := range out {
			out[i].NormalIn += ts.route[i]
			out[i].NormalExc += ts.routeExc[i]
		}
		for why, n := range ts.rejects {
			key := why.cell
			if why.field >= 0 {
				key = fmt.Sprintf("%s %s←%s", sr.inSchema.Col(why.field).Name, sr.parse.Fields[why.field].Type, why.cell)
			}
			if out[0].Rejects == nil {
				out[0].Rejects = map[string]int64{}
			}
			out[0].Rejects[key] += n
		}
		// Rows that fell off the kernel prefix at the stage barrier are
		// attributed to the barrier op itself, not folded into the
		// generic boxed counters.
		if sr.batch != nil && sr.batch.suffix != nil && int(sr.batch.barrierIdx) < len(out) {
			out[sr.batch.barrierIdx].Bounced += ts.bounced
		}
	}
	for oi, bop := range sr.boxed {
		if bop.stats == nil {
			continue
		}
		out[oi+1].GeneralIn += bop.stats.generalIn.Load()
		out[oi+1].FallbackIn += bop.stats.fallbackIn.Load()
	}
	return out
}

// runUnit feeds one unit through the normal path: a streamed chunk
// (order keys part<<streamKeyShift|i) or an in-memory partition.
func (sr *stageRun) runUnit(ts *task, u unit) {
	if u.chunk == nil {
		sr.runPartition(ts, u.part)
		return
	}
	data, baseKey := u.chunk.Data, uint64(u.part)<<streamKeyShift
	switch {
	case sr.isText:
		sr.runRecords(ts, u.part, splitPlainLines(data), baseKey)
	case sr.batch != nil:
		sr.runChunkColumnar(ts, u.part, data, baseKey)
	default:
		sr.runRecords(ts, u.part, csvio.SplitRecords(data), baseKey)
	}
}

// runRecords feeds raw source records through the row-at-a-time normal
// path with order keys baseKey+i.
func (sr *stageRun) runRecords(ts *task, p int, recs [][]byte, baseKey uint64) {
	var rejects, normalExc int64
	for i, rec := range recs {
		key := baseKey + uint64(i)
		var row rows.Row
		var ec ECode
		if sr.isText {
			row = ts.rowBuf[:1]
			row[0] = rows.Str(string(rec))
		} else {
			row = ts.rowBuf[:sr.nFields]
			ec = sr.parse.ParseLine(rec, row)
		}
		if ec != 0 {
			rejects++
			ts.pool = append(ts.pool, exRow{part: p, key: key, raw: rec, ec: ec})
			if ts.route != nil {
				sr.countReject(ts, rec)
			}
			continue
		}
		if ec = sr.entry(ts, key, row); ec != 0 {
			normalExc++
			ts.pool = append(ts.pool, exRow{part: p, key: key, raw: rec, ec: ec, op: ts.excOp})
			if ts.routeExc != nil {
				ts.routeExc[ts.excOp]++
			}
			continue
		}
	}
	ts.finishRows(int64(len(recs)), rejects, normalExc)
}

// runPartition feeds an in-memory partition — a Parallelize range or a
// previous stage's output — through the normal path.
func (sr *stageRun) runPartition(ts *task, p int) {
	if sr.input == nil && sr.batch != nil {
		sr.runSlotsColumnar(ts, p)
		return
	}
	r := sr.partRanges[p]
	var input, rejects, normalExc int64
	switch {
	case sr.input == nil:
		for i := r[0]; i < r[1]; i++ {
			key := uint64(i)
			input++
			src := sr.inputSlots[i]
			if !rowConforms(src, sr.inSchema) {
				rejects++
				ts.pool = append(ts.pool, exRow{part: p, key: key, vals: rows.RowToValues(src), ec: pyvalue.ExcBadParse})
				continue
			}
			row := append(ts.rowBuf[:0], src...)
			if ec := sr.entry(ts, key, row); ec != 0 {
				normalExc++
				ts.pool = append(ts.pool, exRow{part: p, key: key, vals: rows.RowToValues(src), ec: ec, op: ts.excOp})
				if ts.routeExc != nil {
					ts.routeExc[ts.excOp]++
				}
				continue
			}
		}
	default:
		in := sr.input
		rowsP, keysP := in.parts[p], in.keys[p]
		for i := range rowsP {
			input++
			row := append(ts.rowBuf[:0], rowsP[i]...)
			if ec := sr.entry(ts, keysP[i], row); ec != 0 {
				normalExc++
				ts.pool = append(ts.pool, exRow{part: p, key: keysP[i], vals: rows.RowToValues(rowsP[i]), ec: ec, op: ts.excOp})
				if ts.routeExc != nil {
					ts.routeExc[ts.excOp]++
				}
			}
		}
	}
	ts.finishRows(input, rejects, normalExc)
}

// finishRows flushes a task's local tallies into the run once per call —
// atomics per row would dominate tight loops: the row counters, the
// ledger's source entry, and the probe and batch-plane counters. It also
// detaches pooled raw records from the chunk buffer they alias, which
// is recycled once the task ends.
func (ts *task) finishRows(input, rejects, normalExc int64) {
	c := &ts.eng.res.Metrics.Counters
	c.InputRows.Add(input)
	c.ClassifierRejects.Add(rejects)
	c.NormalPathExceptions.Add(normalExc)
	c.NormalRows.Add(input - rejects - normalExc)
	ts.inRows += input
	if ts.route != nil {
		ts.route[0] += input
		ts.routeExc[0] += rejects
	}
	ts.flushProbeCounters()
	ts.flushBatchCounters()
	for i := range ts.pool {
		if ts.pool[i].raw != nil {
			ts.pool[i].raw = append([]byte(nil), ts.pool[i].raw...)
		}
	}
}

// flushProbeCounters drains the task-local join probe tallies into the
// shared metrics.
func (ts *task) flushProbeCounters() {
	if ts.probeHits == 0 && ts.probeMisses == 0 {
		return
	}
	jm := &ts.eng.res.Metrics.Join
	jm.ProbeHits.Add(ts.probeHits)
	jm.ProbeMisses.Add(ts.probeMisses)
	ts.probeHits, ts.probeMisses = 0, 0
}

// flushBatchCounters drains the task-local batch-plane tallies into the
// shared metrics (called once per run-partition call, like the probe
// counters; ts.bounced stays live for the routing-ledger merge).
func (ts *task) flushBatchCounters() {
	bm := &ts.eng.res.Metrics.Batch
	if ts.columnarRows != 0 {
		bm.ColumnarRows.Add(ts.columnarRows)
		ts.columnarRows = 0
	}
	if d := ts.bounced - ts.bouncedFlushed; d != 0 {
		bm.BouncedRows.Add(d)
		ts.bouncedFlushed = ts.bounced
	}
	if ts.fusedPasses != 0 {
		bm.FusedPasses.Add(ts.fusedPasses)
		ts.fusedPasses = 0
	}
	if ts.vectorRows != 0 {
		bm.VectorRows.Add(ts.vectorRows)
		bm.VectorBailRows.Add(ts.vectorBail)
		ts.vectorRows, ts.vectorBail = 0, 0
	}
	if ts.nullElided != 0 {
		bm.NullElisions.Add(ts.nullElided)
		ts.nullElided = 0
	}
	if ts.nullChecked != 0 {
		bm.NullChecked.Add(ts.nullChecked)
		ts.nullChecked = 0
	}
}

// unboxConforming converts a boxed row to slots when it matches the
// normal schema.
func unboxConforming(vals []pyvalue.Value, sch *types.Schema, buf []rows.Slot) (rows.Row, bool) {
	if len(vals) != sch.Len() {
		return nil, false
	}
	row := buf[:len(vals)]
	for i, v := range vals {
		s := rows.FromValue(v)
		if !rows.Matches(s, sch.Col(i).Type) {
			return nil, false
		}
		row[i] = s
	}
	return row, true
}

// rowConforms reports whether a slot row matches the normal schema
// (the classifier for slot-native sources — no conversion needed).
func rowConforms(row rows.Row, sch *types.Schema) bool {
	if len(row) != sch.Len() {
		return false
	}
	for i, s := range row {
		if !rows.Matches(s, sch.Col(i).Type) {
			return false
		}
	}
	return true
}

// compileStage builds the plan for one stage: the source-side decisions
// from the sample the binding holds (planSource), then the normal and
// boxed programs (compileOps). It also reports the time spent sampling.
func (eng *engine) compileStage(sl *stageSlot, sr *stageRun) (*stagePlan, time.Duration, error) {
	pl := &stagePlan{terminal: sl.st.Terminal, emit: sl.emit}
	srcFacts, dSample, err := eng.planSource(pl, sl.st.Source, sr)
	if err != nil {
		return nil, 0, err
	}
	if err := eng.compileOps(pl, sl, srcFacts); err != nil {
		return nil, 0, err
	}
	return pl, dSample, nil
}

// compileOps compiles the stage's operators and terminal into the plan's
// normal-path chain, batch program and boxed recipe. It sees only plan
// state — never the run that triggered the compile — so nothing it
// closes over can be per-run. srcFacts seeds the dataflow analysis for
// the first UDF: per-column type facts plus sampled value statistics
// (constants, int ranges) for sources that sample values; nil means type
// facts only.
func (eng *engine) compileOps(pl *stagePlan, sl *stageSlot, srcFacts []dataflow.ColFact) error {
	st := sl.st
	// Routing-ledger layout (one entry per operator plus the source and
	// terminal pseudo-entries); counters are only allocated at LevelRows.
	pl.traceRows = eng.tr.Rows()
	pl.traceSamples = eng.tr.Samples()
	pl.opNames = make([]string, 0, len(st.Ops)+2)
	pl.opNames = append(pl.opNames, "source")
	for _, op := range st.Ops {
		pl.opNames = append(pl.opNames, opName(op))
	}
	pl.opNames = append(pl.opNames, terminalName(st.Terminal, pl.emit))
	pl.termRouteIdx = int32(len(st.Ops) + 1)

	// Walk ops: compute schemas, compile UDFs, build step compilers.
	type compiledOp struct {
		make func(next nstep) nstep
		// ridx is the op's routing-ledger index.
		ridx int32
		// batch is the op's columnar kernel (nil = not batch-compilable;
		// the kernel prefix ends at the first nil).
		batch *batchKernel
	}
	var nops []compiledOp
	schema := pl.inSchema
	pl.maxCols = schema.Len()
	frameIdx := 0
	var lastHandlers *opHandlers
	// lastUDF tracks the UDF a following resolve() attaches to, for the
	// dead-resolver lint.
	var lastUDF *stageUDF
	// nJoins counts the JoinOps seen so far: the index of the next one's
	// build side in sl.builds and of its table in a run's joins.
	nJoins := 0
	// colFacts tracks the per-column dataflow seeds alongside schema.
	// Ops that change columns rebuild it (cloning first: earlier UDFs'
	// analysis results hold references to prior versions).
	colFacts := srcFacts
	if colFacts == nil {
		colFacts = typeColFacts(schema)
	}

	for oi, op := range st.Ops {
		ridx := int32(oi + 1)
		switch op := op.(type) {
		case *logical.MapOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op), pl.generalCase)
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			outSchema := mapOutputSchema(su)
			h := &opHandlers{}
			bop := &boxedOp{kind: bOpMap, spec: op.UDF, handlers: h, inSchema: schema, outSchema: outSchema, scalar: scalar}
			pl.recipe = append(pl.recipe, bop)
			lastHandlers = h
			inIdx := 0 // scalar single-column index
			nCols := outSchema.Len()
			scratchIdx := su.frameIdx
			outTs := make([]types.Type, outSchema.Len())
			for i := range outTs {
				outTs[i] = outSchema.Col(i).Type
			}
			bk := &batchKernel{kind: bkMap, su: su, ridx: ridx, scalar: scalar, argIdx: inIdx,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema), outTypes: outTs}
			nops = append(nops, compiledOp{ridx: ridx, batch: bk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					v, ec := callNormalUDF(ts, su, row, inIdx, scalar)
					if ec != 0 {
						ts.excOp = ridx
						return ec
					}
					out := ts.opScratch(scratchIdx, pl.maxCols)
					switch {
					case len(v.Seq) > 0 && (v.Tag == types.KindDict || v.Tag == types.KindTuple):
						if len(v.Seq) != nCols {
							ts.excOp = ridx
							return pyvalue.ExcUnsupported
						}
						out = append(out, v.Seq...)
					case nCols == 1:
						out = append(out, v)
					default:
						ts.excOp = ridx
						return pyvalue.ExcUnsupported
					}
					return next(ts, key, out)
				}
			}})
			schema = outSchema
			colFacts = typeColFacts(outSchema)
			if schema.Len() > pl.maxCols {
				pl.maxCols = schema.Len() + 8
			}

		case *logical.FilterOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op), pl.generalCase)
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			h := &opHandlers{}
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpFilter, spec: op.UDF, handlers: h, inSchema: schema, scalar: scalar})
			lastHandlers = h
			fbk := &batchKernel{kind: bkFilter, su: su, ridx: ridx, scalar: scalar,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema)}
			nops = append(nops, compiledOp{ridx: ridx, batch: fbk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					v, ec := callNormalUDF(ts, su, row, 0, scalar)
					if ec != 0 {
						ts.excOp = ridx
						return ec
					}
					if !v.Truth() {
						return 0
					}
					return next(ts, key, row)
				}
			}})

		case *logical.WithColumnOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op), pl.generalCase)
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			retT := su.returnType()
			replaceIdx, exists := schema.Lookup(op.Col)
			if !exists {
				replaceIdx = -1
			}
			h := &opHandlers{}
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpWithColumn, spec: op.UDF, handlers: h, inSchema: schema, col: op.Col, colIdx: replaceIdx, scalar: scalar})
			lastHandlers = h
			wbk := &batchKernel{kind: bkWithColumn, su: su, ridx: ridx, scalar: scalar, colIdx: replaceIdx,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema), outTypes: []types.Type{retT}}
			nops = append(nops, compiledOp{ridx: ridx, batch: wbk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					v, ec := callNormalUDF(ts, su, row, 0, scalar)
					if ec != 0 {
						ts.excOp = ridx
						return ec
					}
					if replaceIdx >= 0 {
						row[replaceIdx] = v
					} else {
						row = append(row, v)
					}
					return next(ts, key, row)
				}
			}})
			schema = schema.WithColumn(op.Col, retT)
			nf := append([]dataflow.ColFact(nil), colFacts...)
			if replaceIdx >= 0 && replaceIdx < len(nf) {
				nf[replaceIdx] = dataflow.ColFact{Type: retT}
			} else {
				nf = append(nf, dataflow.ColFact{Type: retT})
			}
			colFacts = nf
			if schema.Len() > pl.maxCols {
				pl.maxCols = schema.Len() + 8
			}

		case *logical.MapColumnOp:
			idx, ok := schema.Lookup(op.Col)
			if !ok {
				return fmt.Errorf("core: mapColumn: no column %q in %s", op.Col, schema)
			}
			colT := schema.Col(idx).Type
			su := eng.compileUDF(op.UDF, []types.Type{colT}, true,
				[]dataflow.ColFact{colFacts[idx]}, opName(op), pl.generalCase)
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			h := &opHandlers{}
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpMapColumn, spec: op.UDF, handlers: h, inSchema: schema, col: op.Col, colIdx: idx, scalar: true})
			lastHandlers = h
			mbk := &batchKernel{kind: bkMapColumn, su: su, ridx: ridx, scalar: true, argIdx: idx, colIdx: idx,
				inCols: schema.Len(), outTypes: []types.Type{su.returnType()}}
			nops = append(nops, compiledOp{ridx: ridx, batch: mbk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					v, ec := callNormalUDF(ts, su, row, idx, true)
					if ec != 0 {
						ts.excOp = ridx
						return ec
					}
					row[idx] = v
					return next(ts, key, row)
				}
			}})
			schema = schema.WithColumn(op.Col, su.returnType())
			nf := append([]dataflow.ColFact(nil), colFacts...)
			nf[idx] = dataflow.ColFact{Type: su.returnType()}
			colFacts = nf

		case *logical.RenameOp:
			ns, err := schema.Rename(op.Old, op.New)
			if err != nil {
				return err
			}
			schema = ns
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpNoop})

		case *logical.SelectOp:
			ns, idx, err := schema.Select(op.Cols)
			if err != nil {
				return err
			}
			nf := make([]dataflow.ColFact, len(idx))
			for i, j := range idx {
				if j < len(colFacts) {
					nf[i] = colFacts[j]
				} else {
					nf[i] = dataflow.ColFact{Type: ns.Col(i).Type}
				}
			}
			colFacts = nf
			schema = ns
			sel := append([]int(nil), idx...)
			selScratch := frameIdx
			frameIdx++
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpSelect, sel: sel})
			sbk := &batchKernel{kind: bkSelect, ridx: ridx, perm: sel}
			nops = append(nops, compiledOp{ridx: ridx, batch: sbk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					out := ts.opScratch(selScratch, len(sel))
					for _, i := range sel {
						out = append(out, row[i])
					}
					return next(ts, key, out)
				}
			}})

		case *logical.ResolveOp:
			if lastHandlers == nil {
				return fmt.Errorf("core: resolve() without a preceding UDF operator")
			}
			lastHandlers.resolvers = append(lastHandlers.resolvers, resolverSpec{exc: op.Exc, spec: op.UDF})
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpNoop})
			// Dead-resolver lint: the compiled normal-case path provably
			// never raises this kind. The resolver still applies on the
			// general path (non-conforming rows run full Python
			// semantics), so this is a warning, not an error.
			if !pl.generalCase && lastUDF != nil && lastUDF.compiled != nil && lastUDF.flow != nil &&
				!lastUDF.flow.MayRaise(op.Exc) {
				eng.warns.add(warnLint,
					"resolve(%s): the compiled normal-case path of the preceding UDF cannot raise %s; the resolver only applies to general-path rows",
					op.Exc, op.Exc)
			}

		case *logical.IgnoreOp:
			if lastHandlers == nil {
				return fmt.Errorf("core: ignore() without a preceding UDF operator")
			}
			lastHandlers.ignores = append(lastHandlers.ignores, op.Exc)
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpNoop})

		case *logical.JoinOp:
			// The build chain ran (and so compiled) before this stage
			// compiles; the plan takes only its output schema. The table
			// itself is per-run: steps and kernels fetch it from the task.
			ji := nJoins
			nJoins++
			added, _, _, err := joinBuildCols(sl.builds[ji].chain.outSchema(), op)
			if err != nil {
				return err
			}
			keyIdx, ok := schema.Lookup(op.LeftKey)
			if !ok {
				return fmt.Errorf("core: join: no column %q in %s", op.LeftKey, schema)
			}
			outSchema := joinOutputSchema(schema, op, added)
			left := op.Left
			bAdd := added.Len()
			scratchIdx := frameIdx
			frameIdx++ // reserve a scratch slot (no frame needed)
			pl.recipe = append(pl.recipe, &boxedOp{kind: bOpJoin, joinIdx: ji, keyIdx: keyIdx, leftOuter: left, inSchema: schema, outSchema: outSchema})
			jOutTs := make([]types.Type, outSchema.Len())
			for i := range jOutTs {
				jOutTs[i] = outSchema.Col(i).Type
			}
			jbk := &batchKernel{kind: bkJoin, ridx: ridx, colIdx: keyIdx, joinIdx: ji, leftOuter: left,
				inCols: schema.Len(), outTypes: jOutTs}
			nops = append(nops, compiledOp{ridx: ridx, batch: jbk, make: func(next nstep) nstep {
				return func(ts *task, key uint64, row rows.Row) ECode {
					bt := ts.run.joins[ji]
					// Probe: encode the key into the task scratch buffer,
					// hash, and look up the shard — no allocation. (The
					// string(buf) map index below does not allocate; Go
					// optimizes byte-slice map probes, and the general map
					// is only consulted when exception build rows exist.)
					buf, ok := rows.AppendJoinKey(ts.keyBuf[:0], row[keyIdx])
					ts.keyBuf = buf
					var matches []buildRef
					if ok {
						if bt.genCount > 0 && len(bt.general[string(buf)]) > 0 {
							// Normal×exception join pairs run on the
							// exception path (§4.5 pairwise joins).
							ts.excOp = ridx
							return pyvalue.ExcUnsupported
						}
						matches = bt.lookup(rows.Hash64(buf), buf)
					}
					if len(matches) == 0 {
						ts.probeMisses++
						if !left {
							return 0
						}
						out := ts.opScratch(scratchIdx, pl.maxCols)
						out = append(out, row...)
						for range bAdd {
							out = append(out, rows.Null())
						}
						return next(ts, key*256, out)
					}
					ts.probeHits++
					for i, ref := range matches {
						sub := uint64(i)
						if sub > 255 {
							sub = 255
						}
						out := ts.opScratch(scratchIdx, pl.maxCols)
						out = append(out, row...)
						out = bt.appendRow(out, ref)
						if ec := next(ts, key*256+sub, out); ec != 0 {
							return ec
						}
					}
					return 0
				}
			}})
			nf := append([]dataflow.ColFact(nil), colFacts...)
			for i := schema.Len(); i < outSchema.Len(); i++ {
				nf = append(nf, dataflow.ColFact{Type: outSchema.Col(i).Type})
			}
			colFacts = nf
			schema = outSchema
			if schema.Len() > pl.maxCols {
				pl.maxCols = schema.Len() + 8
			}

		default:
			return fmt.Errorf("core: unsupported operator %T", op)
		}
	}

	pl.outSchema = schema
	pl.nUDFs = frameIdx + 1
	if pl.generalCase {
		// A general plan is the operators' kernels alone: resolve boxes
		// what leaves them, and the stage's terminal takes it from there.
		kernels := make([]*batchKernel, len(nops))
		for i, op := range nops {
			kernels[i] = op.batch
		}
		pl.batch = &batchProg{kernels: kernels, groups: fuseKernels(kernels)}
		return nil
	}

	// Terminal handling.
	if st.Terminal == physical.TerminalAggregate {
		agg := st.TerminalOp.(*logical.AggregateOp)
		eng.compileAggregate(pl, agg, schema)
	}
	term, err := pl.makeTerminal()
	if err != nil {
		return err
	}
	// Compose the chain back to front; at LevelRows every step (and the
	// terminal) is preceded by its ledger counter. compose(from) builds
	// the chain starting at op index from — compose(0) is the full row
	// path, later starts serve as the batch plan's row-at-a-time suffix.
	compose := func(from int) nstep {
		entry := term
		if pl.traceRows {
			entry = routeWrap(entry, pl.termRouteIdx)
		}
		for i := len(nops) - 1; i >= from; i-- {
			entry = nops[i].make(entry)
			if pl.traceRows {
				entry = routeWrap(entry, nops[i].ridx)
			}
		}
		return entry
	}
	pl.entry = compose(0)

	// Columnar batch plan: CSV and Parallelize sources compile the
	// maximal prefix of batchable ops into kernels; anything after (plus
	// non-batchable terminals) runs through the composed suffix via the
	// row bridge. Adjacent per-row kernels group into fused passes that
	// share one selection-vector scan.
	_, slotSource := st.Source.(*logical.ParallelizeSource)
	if eng.opts.Columnar && (pl.parse != nil || slotSource) {
		prefix := 0
		for prefix < len(nops) && nops[prefix].batch != nil {
			prefix++
		}
		kernels := make([]*batchKernel, prefix)
		for i := range kernels {
			kernels[i] = nops[i].batch
		}
		bp := &batchProg{kernels: kernels, groups: fuseKernels(kernels)}
		batchTerm := pl.terminal == physical.TerminalSink || pl.terminal == physical.TerminalMaterialize ||
			pl.terminal == physical.TerminalUnique || pl.terminal == physical.TerminalAggregate
		if prefix < len(nops) || !batchTerm {
			bp.suffix = compose(prefix)
			// The stage barrier: rows reaching the end of the kernel
			// prefix bounce to the composed row path at this ledger index.
			bp.barrierIdx = pl.termRouteIdx
			if prefix < len(nops) {
				bp.barrierIdx = nops[prefix].ridx
			}
		}
		pl.batch = bp
	}
	return nil
}

// opName names an operator for the routing ledger and trace output.
func opName(op logical.Op) string {
	switch op := op.(type) {
	case *logical.MapOp:
		return "map"
	case *logical.FilterOp:
		return "filter"
	case *logical.WithColumnOp:
		return "withColumn(" + op.Col + ")"
	case *logical.MapColumnOp:
		return "mapColumn(" + op.Col + ")"
	case *logical.RenameOp:
		return "rename"
	case *logical.SelectOp:
		return "select"
	case *logical.ResolveOp:
		return "resolve"
	case *logical.IgnoreOp:
		return "ignore"
	case *logical.JoinOp:
		return "join(" + op.LeftKey + ")"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// terminalName names the stage terminal for the routing ledger.
func terminalName(k physical.TerminalKind, emit emitForm) string {
	switch k {
	case physical.TerminalUnique:
		return "unique"
	case physical.TerminalAggregate:
		return "aggregate"
	default:
		if emit == emitCSV {
			return "csv"
		}
		return "collect"
	}
}

// opScratch returns a reusable slot buffer for op i.
func (ts *task) opScratch(i, capHint int) []rows.Slot {
	for i >= len(ts.scratch) {
		ts.scratch = append(ts.scratch, nil)
	}
	if cap(ts.scratch[i]) < capHint {
		ts.scratch[i] = make([]rows.Slot, 0, capHint+8)
	}
	return ts.scratch[i][:0]
}

// callNormalUDF invokes a compiled UDF with either the whole row or one
// column value.
func callNormalUDF(ts *task, su *stageUDF, row rows.Row, colIdx int, scalar bool) (rows.Slot, ECode) {
	if su.compiled == nil {
		return rows.Slot{}, pyvalue.ExcUnsupported
	}
	fr := ts.frames[su.frameIdx]
	var arg rows.Slot
	if scalar {
		arg = row[colIdx]
	} else {
		arg = rows.Tuple(row)
	}
	return su.compiled.Call1(fr, arg)
}

func (su *stageUDF) returnType() types.Type {
	if su.compiled != nil {
		return su.compiled.ReturnType()
	}
	return types.Any
}

// paramStyle decides whether a UDF receives the bare value of a
// single-column row or the whole row (dict/tuple access compiles to
// direct column loads either way).
func paramStyle(spec *logical.UDFSpec, schema *types.Schema) (scalar bool, paramT types.Type) {
	if schema.Len() == 1 {
		if len(spec.Access.ByName) > 0 {
			if _, ok := schema.Lookup(spec.Access.ByName[0]); ok {
				return false, types.Row(schema)
			}
		}
		return true, schema.Col(0).Type
	}
	return false, types.Row(schema)
}

// compileUDF compiles one UDF's normal-path form and runs the static
// dataflow analysis over the typed normal-case form: its lints
// surface as result warnings, and when compiler optimizations are on
// its facts drive dead-branch pruning, constant folding and check
// elision in codegen (guarded where they rest on sampled values).
// colFacts seeds the analysis for the UDF's input columns; label names
// the operator in warnings and trace output. general compiles for a
// general plan (compileGeneral): from a fresh parse, null optimization
// off, no lints.
func (eng *engine) compileUDF(spec *logical.UDFSpec, paramTypes []types.Type, scalar bool, colFacts []dataflow.ColFact, label string, general bool) *stageUDF {
	su := &stageUDF{spec: spec, scalarParam: scalar}
	if general {
		// Typing annotates the AST, and vector programs read those
		// annotations while they run: a general plan compiles its own
		// parse of the source, never the normal plan's AST.
		fresh, err := logical.ParseUDF(spec.Source, spec.Globals)
		if err != nil {
			return su
		}
		su.spec, spec = fresh, fresh
	}
	globalTypes := map[string]types.Type{}
	for k, v := range spec.Globals {
		globalTypes[k] = typeOfBoxed(v)
	}
	// A general plan's UDFs see every null the data holds: nothing is
	// pruned on the sample's nulls, and no null fact seeds the analysis.
	noNullOpt := general || eng.opts.Sample.DisableNullOpt
	infOpts := inference.Options{DisableNullPruning: noNullOpt}
	info, err := inference.TypeFunction(spec.Fn, paramTypes, globalTypes, infOpts)
	if err != nil {
		// Structural mismatch (e.g. wrong arity): the UDF can still run
		// boxed; the fast path is simply absent.
		return su
	}
	flow := dataflow.Analyze(info, dataflow.Options{
		Columns:   colFacts,
		NullFacts: !noNullOpt,
		Globals:   spec.Globals,
	})
	su.flow = flow
	if !general {
		eng.reportLints(label, flow.Lints())
	}
	cgOpts := eng.opts.Codegen
	if cgOpts.Specialize {
		cgOpts.Flow = flow
	}
	u, err := codegen.Compile(info, spec.Globals, cgOpts)
	if err != nil {
		eng.traceAnalyze(label, flow, nil)
		return su
	}
	su.compiled = u
	eng.traceAnalyze(label, flow, u)
	return su
}

// maxLintWarnings bounds how many lint diagnostics one UDF contributes
// to Result.Warnings.
const maxLintWarnings = 8

// reportLints surfaces UDF lints as user-facing result warnings.
func (eng *engine) reportLints(label string, lints []dataflow.Lint) {
	n := len(lints)
	if n > maxLintWarnings {
		n = maxLintWarnings
	}
	for _, l := range lints[:n] {
		eng.warns.add(warnLint, "%s: UDF %s", label, l)
	}
	if len(lints) > n {
		eng.warns.add(warnLint, "%s: %d more UDF lints suppressed", label, len(lints)-n)
	}
}

// traceAnalyze records the per-UDF analysis facts on an "analyze" span
// (child of the enclosing stage span). u is nil when codegen bailed.
func (eng *engine) traceAnalyze(label string, flow *dataflow.Result, u *codegen.UDF) {
	attrs := []trace.Attr{trace.Str("op", label)}
	if raise := flow.CanRaise(); len(raise) > 0 {
		names := make([]string, len(raise))
		for i, k := range raise {
			names[i] = k.String()
		}
		attrs = append(attrs, trace.Str("can_raise", strings.Join(names, ",")))
	}
	attrs = append(attrs, trace.Int("lints", int64(len(flow.Lints()))))
	if u != nil {
		attrs = append(attrs,
			trace.Int("branches_pruned", int64(u.Opt.BranchesPruned)),
			trace.Int("consts_folded", int64(u.Opt.ConstsFolded)),
			trace.Int("checks_elided", int64(u.Opt.ChecksElided)),
			trace.Int("raise_exits", int64(u.Opt.RaiseExits)),
			trace.Int("guards", int64(len(u.Guards))))
	}
	eng.tr.Child("analyze", 0, attrs...)
}

// mapOutputSchema derives the schema a MapOp produces.
func mapOutputSchema(su *stageUDF) *types.Schema {
	rt := su.returnType()
	switch rt.Kind() {
	case types.KindRow:
		return rt.Schema()
	case types.KindTuple:
		elts := rt.Elts()
		cols := make([]types.Column, len(elts))
		for i, t := range elts {
			cols[i] = types.Column{Name: fmt.Sprintf("_%d", i), Type: t}
		}
		return types.NewSchema(cols)
	default:
		name := "value"
		if su.spec.Access != nil && len(su.spec.Access.OutputColumns) == 1 {
			name = su.spec.Access.OutputColumns[0]
		}
		return types.NewSchema([]types.Column{{Name: name, Type: rt}})
	}
}

// bind opens a stage's source for this run — the only place sources are
// opened or read. CSV and text sources, files or inline data, stream in
// chunks (only the sampling prefix is read here; the rest overlaps I/O
// with parsing and UDF execution at run time); parallelize data travels
// on the source node; interior stages take the previous stage's output.
// A compiling run samples from what bind already holds, so each input is
// read once per run, cold or warm.
func (eng *engine) bind(source logical.Op, input *mat) (*stageRun, error) {
	sr := &stageRun{}
	switch src := source.(type) {
	case *logical.CSVSource:
		ss, err := eng.openStreamSource(src.Path, src.Data, csvDelim(src), src.Header, csvio.ChunkCSV)
		if err != nil {
			return nil, err
		}
		sr.stream = ss
		if len(ss.sample) == 0 {
			sr.closeSource()
			return nil, fmt.Errorf("core: empty CSV input %s", src.Path)
		}
	case *logical.TextSource:
		ss, err := eng.openStreamSource(src.Path, src.Data, 0, false, csvio.ChunkText)
		if err != nil {
			return nil, err
		}
		sr.stream = ss
	case *logical.ParallelizeSource:
		sr.inputSlots = src.SlotRows
		if sr.inputSlots == nil && src.Rows != nil {
			// Legacy boxed form: unbox once up front.
			sr.inputSlots = make([]rows.Row, len(src.Rows))
			for i, r := range src.Rows {
				sr.inputSlots[i] = rows.RowFromValues(r)
			}
		}
		sr.partRanges = splitRange(len(sr.inputSlots), eng.partSize(len(sr.inputSlots)))
	case nil:
		if input == nil {
			return nil, fmt.Errorf("core: stage without source or input")
		}
		sr.input = input
		sr.partRanges = make([][2]int, len(input.parts))
		for i, p := range input.parts {
			sr.partRanges[i] = [2]int{0, len(p)}
		}
	default:
		return nil, fmt.Errorf("core: unsupported source %T", source)
	}
	return sr, nil
}

// closeSource releases a streamed binding's file and unconsumed prefix
// chunks (idempotent; a no-op for every other binding).
func (sr *stageRun) closeSource() {
	if sr.stream != nil {
		sr.stream.close()
	}
}

func csvDelim(src *logical.CSVSource) byte {
	if src.Delim == 0 {
		return ','
	}
	return src.Delim
}

// planSource makes the plan's source-side decisions — the normal-case
// schema, the generated parser, null values — from the sample the
// binding holds, and returns the dataflow seeds for the first UDF and
// the time spent sampling.
func (eng *engine) planSource(pl *stagePlan, source logical.Op, sr *stageRun) ([]dataflow.ColFact, time.Duration, error) {
	pl.nullValues = csvio.DefaultNullValues
	switch src := source.(type) {
	case *logical.CSVSource:
		records, names := sr.stream.sample, sr.stream.headerNames
		if src.Columns != nil {
			names = src.Columns
		}
		t0 := time.Now()
		plan, err := sample.Sample(records, csvDelim(src), names, eng.mkSampleCfg(src.NullValues))
		dSample := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		if plan.AllExceptions {
			eng.warns.add(warnAdvice,
				"sample produced only exceptions; revise the pipeline or increase the sample size")
		}
		if plan.Config.NullValues != nil {
			pl.nullValues = plan.Config.NullValues
		}
		// Projection pushdown into the generated parser.
		fields, schema, idxs := projectedFields(plan, src.Projected())
		pl.parse = csvio.NewParseSpec(csvDelim(src), plan.NumCols, fields, plan.Config.NullValues)
		pl.nFields = len(fields)
		pl.inSchema = schema
		gcols := make([]types.Column, len(idxs))
		for i, idx := range idxs {
			gcols[i] = plan.GeneralSchema.Col(idx)
		}
		pl.generalIn = types.NewSchema(gcols)
		return seedColFacts(schema, plan.Stats, idxs), dSample, nil
	case *logical.TextSource:
		colName := src.Column
		if colName == "" {
			colName = "value"
		}
		pl.isText = true
		pl.inSchema = types.NewSchema([]types.Column{{Name: colName, Type: types.Str}})
	case *logical.ParallelizeSource:
		t0 := time.Now()
		// The sampler only reads the prefix; box exactly those rows
		// instead of the whole input.
		need := eng.mkSampleCfg(nil).WithDefaults().Size
		if need > len(sr.inputSlots) {
			need = len(sr.inputSlots)
		}
		sampleRows := make([][]pyvalue.Value, need)
		for i := range sampleRows {
			sampleRows[i] = rows.RowToValues(sr.inputSlots[i])
		}
		plan, err := sample.SampleValues(sampleRows, src.Names, eng.mkSampleCfg(nil))
		if err != nil {
			return nil, 0, err
		}
		pl.inSchema = plan.Schema
		return seedColFacts(plan.Schema, plan.Stats, nil), time.Since(t0), nil
	case nil:
		pl.inSchema = sr.input.schema
		if sr.input.nullValues != nil {
			pl.nullValues = sr.input.nullValues
		}
	}
	return nil, 0, nil
}

func (eng *engine) mkSampleCfg(nullValues []string) sample.Config {
	cfg := eng.opts.Sample
	if nullValues != nil {
		cfg.NullValues = nullValues
	}
	return cfg
}

// typeColFacts seeds type-only dataflow facts for a schema (no value
// statistics, hence no guard obligations).
func typeColFacts(schema *types.Schema) []dataflow.ColFact {
	facts := make([]dataflow.ColFact, schema.Len())
	for i := range facts {
		facts[i].Type = schema.Col(i).Type
	}
	return facts
}

// seedColFacts derives the dataflow seeds for a stage input schema from
// the sampled per-column statistics. idxs maps schema positions to
// stats positions (nil for identity). Value-statistic facts describe
// the sample only; any specialization resting on them is guarded.
func seedColFacts(schema *types.Schema, stats []sample.ColumnStats, idxs []int) []dataflow.ColFact {
	facts := typeColFacts(schema)
	for i := range facts {
		si := i
		if idxs != nil {
			if i >= len(idxs) {
				continue
			}
			si = idxs[i]
		}
		if si < 0 || si >= len(stats) {
			continue
		}
		st := &stats[si]
		if c, ok := st.ConstValue(); ok {
			facts[i].Const = c
		}
		if lo, hi, ok := st.IntRange(); ok {
			facts[i].Lo, facts[i].Hi, facts[i].HasRange = lo, hi, true
		}
	}
	return facts
}

// projectedFields maps the pushed projection to parser fields, the
// stage input schema (source column order), and the source column index
// of each projected field.
func projectedFields(plan *sample.CasePlan, proj []string) ([]csvio.FieldSpec, *types.Schema, []int) {
	full := plan.Schema
	var idxs []int
	if proj == nil {
		idxs = make([]int, full.Len())
		for i := range idxs {
			idxs[i] = i
		}
	} else {
		seen := map[int]bool{}
		for _, name := range proj {
			if i, ok := full.Lookup(name); ok && !seen[i] {
				idxs = append(idxs, i)
				seen[i] = true
			}
		}
		sort.Ints(idxs)
		if len(idxs) == 0 {
			// Degenerate projection (e.g. a count-only pipeline): keep
			// the first column so rows still flow.
			idxs = []int{0}
		}
	}
	fields := make([]csvio.FieldSpec, len(idxs))
	cols := make([]types.Column, len(idxs))
	for i, idx := range idxs {
		fields[i] = csvio.FieldSpec{Col: idx, Type: full.Col(idx).Type}
		cols[i] = full.Col(idx)
	}
	return fields, types.NewSchema(cols), idxs
}

func (eng *engine) partSize(n int) int {
	per := n / (4 * eng.opts.Executors)
	if per < 1024 {
		per = 1024
	}
	if per > eng.opts.PartitionRows {
		per = eng.opts.PartitionRows
	}
	return per
}

func splitRange(n, size int) [][2]int {
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	var out [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// splitPlainLines splits text content on newlines (no quoting).
func splitPlainLines(data []byte) [][]byte {
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
