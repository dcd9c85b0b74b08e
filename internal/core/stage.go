package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/colvec"
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

// opHandlers are the resolvers/ignores attached to one UDF operator.
type opHandlers struct {
	resolvers []resolverSpec
	ignores   []pyvalue.ExcKind
}

// resolverSpec is one resolver: the exception kind it takes, its UDF,
// and, like stageOp.accessCols, the row positions of the columns that
// UDF reads by name (nil: the whole row).
type resolverSpec struct {
	exc        pyvalue.ExcKind
	spec       *logical.UDFSpec
	accessCols []int
}

// opKind enumerates the stage operators that compile to a stageOp.
// Rename, resolve and ignore compile to none: a rename changes only the
// schema, and a resolver or ignore joins its UDF operator's handlers.
type opKind uint8

const (
	opMap opKind = iota
	opFilter
	opWithColumn
	opMapColumn
	opSelect
	opJoin
)

// stageOp is one stage operator as compileOps compiles it, once, for
// both of its readers: the batch plan runs it as a kernel (runKernels)
// and the fallback as a boxed operator over the run's interpreters
// (apply). Only compileOps writes it; every run of the plan reads it,
// concurrently.
type stageOp struct {
	kind opKind
	// ridx is the operator's routing-ledger index, ki its index in the
	// plan's ops (it addresses the kernel's derived vectors in
	// batchState).
	ridx int32
	ki   int
	// su is the operator's UDF and handlers its resolvers and ignores
	// (both nil for select and join).
	su       *stageUDF
	handlers *opHandlers
	// inSchema and outSchema are the schemas entering and leaving it.
	inSchema, outSchema *types.Schema
	// scalar marks a UDF receiving a bare column value, argIdx the column
	// it is read from. colIdx is the mapColumn target, the withColumn
	// replace index (-1 = append) and the join probe-key column.
	scalar bool
	argIdx int
	colIdx int
	// sel is the select permutation.
	sel []int
	// joinIdx is the join's build table in the run's joins; leftOuter
	// marks a left join.
	joinIdx   int
	leftOuter bool

	// The batch kernel's fields. vec is the UDF's vector program
	// (codegen/vec.go) when the kernel can run it: a filter over any
	// vectorizable body, a withColumn/mapColumn whose derived vector has
	// the program's kind. nil keeps the row closure, and rowWhy says why.
	// argCols lists the columns a whole-row UDF reads (accessed columns
	// plus guard columns; nil = fill every column). outTypes types the
	// derived output vectors (map: one per output column;
	// withColumn/mapColumn: one; join: the full output schema).
	vec      *codegen.VecExpr
	rowWhy   string
	argCols  []int
	outTypes []types.Type

	// accessCols, the fallback's, are the row positions of the columns a
	// whole-row UDF reads by name (-1: not in the schema): its dict
	// argument holds only those. nil builds the whole row.
	accessCols []int
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

	// ops are the stage's compiled operators; the batch plan, the normal
	// path every stage runs, groups them into fused passes (groups).
	ops     []*stageOp
	groups  [][]*stageOp
	maxCols int
	nUDFs   int
	// emit is the form the stage's tasks write (stageSlot.emit).
	emit emitForm

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
// the join build tables, the fallback's interpreters, and what execution
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

	// Private interpreters (an interpreter belongs to one goroutine):
	// interps holds, per op, its UDF's and then each resolver's (nil for
	// select and join), built by resolve for the rows the fallback runs.
	interps   [][]*boxedUDF
	aggBoxed  *boxedUDF
	combBoxed *boxedUDF

	tasks []*task
	// routing accumulates the resolve phase's counts (plus merged
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
// per-run halves of it: the terminal's interpreters and a fresh routing
// ledger.
func (sr *stageRun) attach(pl *stagePlan) {
	sr.stagePlan = pl
	if pl.traceRows {
		sr.routing = make([]trace.OpRouting, len(pl.opNames))
		for i, n := range pl.opNames {
			sr.routing[i].Op = n
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
	flow     *dataflow.Result
	frameIdx int
}

// task is per-partition execution state.
type task struct {
	eng *engine
	// run is the stage run this task belongs to — the only route from a
	// compiled step or kernel to per-run state such as join build tables.
	run  *stageRun
	part int

	frames []*codegen.Frame
	rowBuf []rows.Slot
	// keyBuf is the reusable scratch buffer for hash-key encodings (join
	// probes, unique terminal) — the hot paths never allocate per row.
	keyBuf []byte

	// outKeys are the order keys of the task's output rows, whatever
	// the stage emits: materialized outRows, outVecs or CSV lines.
	outKeys []uint64
	outRows []rows.Row
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

	// Batch-plane counters. columnarRows counts rows that completed the
	// stage's kernels in vector form; fusedPasses counts fused-group scans
	// over a batch; nullElided/nullChecked count batch-column dispatches
	// that did / did not take the no-null inner loop; vectorRows counts
	// rows entering a vector kernel or fold, vectorBail those it handed
	// back to the row closure.
	columnarRows, fusedPasses int64
	vectorRows, vectorBail    int64
	nullElided, nullChecked   int64
	// parseSlow counts streamed records the chunk parser handed to the
	// per-record path; lazyCells the cells of lazy columns it checked
	// without converting, lazyConverted those a reader then had
	// converted (all summed onto the stage's execute span).
	parseSlow, lazyCells, lazyConverted int64

	// Tracing scratch. worker/start/dur/inRows feed the execute span's
	// task timings (filled only when the tracer is on). route/routeExc
	// are the task's routing-ledger counters, indexed like the plan's
	// opNames (nil below trace.LevelRows — the default path carries none
	// of this).
	worker   int
	start    time.Time
	dur      time.Duration
	inRows   int64
	route    []int64
	routeExc []int64
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
	}
	return out
}

// runUnit feeds one unit through the batch plan: a streamed chunk
// (order keys are record indexes) or an in-memory partition.
func (sr *stageRun) runUnit(ts *task, u unit) {
	switch {
	case u.chunk == nil:
		sr.runRowsColumnar(ts, u.part)
	case sr.isText:
		sr.runTextColumnar(ts, u.part, u.chunk.Data)
	default:
		sr.runChunkColumnar(ts, u.part, u.chunk.Data)
	}
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
// counters).
func (ts *task) flushBatchCounters() {
	bm := &ts.eng.res.Metrics.Batch
	if ts.columnarRows != 0 {
		bm.ColumnarRows.Add(ts.columnarRows)
		ts.columnarRows = 0
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
// from the sample the binding holds (planSource), then its operators
// (compileOps). It also reports the time spent sampling.
func (eng *engine) compileStage(sl *stageSlot, sr *stageRun) (*stagePlan, time.Duration, error) {
	pl := &stagePlan{terminal: sl.st.Terminal, emit: sl.emit}
	srcFacts, dSample, err := eng.planSource(pl, sl.st.Source, sr)
	if err != nil {
		return nil, 0, err
	}
	if err := eng.compileOps(pl, sl, srcFacts); err != nil {
		return nil, 0, err
	}
	if pl.parse != nil {
		pl.markLazy(sr.stream.sample)
	}
	return pl, dSample, nil
}

// lazyMaxShare is the largest share of a batch's rows a column may be
// read at for the chunk parser to convert its cells on read. Checking a
// cell in the walk and converting it at a random fifth of the rows costs
// about what converting every cell in the walk does; at every row it
// costs some 40–50% more (csvio's BenchmarkParseChunk, q6/ensure against
// q6/batch).
const lazyMaxShare = 0.2

// markLazy picks the stage's lazy source columns — the int and float
// columns whose cells the chunk parser checks in its walk and converts
// only at the rows a reader asks for (csvio.FieldSpec.Lazy) — and
// rebuilds the parser with them. It is decided on the source sample
// (records), once per stage. When the stage's first kernel is a vector
// filter or the stage is a vector fold, markLazy runs that program over
// the sample and notes the rows each column is loaded at; a column is
// also read, by later kernels, sinks and row replays, at every row the
// filter keeps or the program hands back. A numeric column read at no
// more than lazyMaxShare of the sample is lazy. With any other first
// kernel every column is read at every row, and none is lazy.
func (pl *stagePlan) markLazy(records [][]byte) {
	if pl.parse == nil || pl.generalCase {
		return
	}
	// run runs the program over sel and returns the rows every column is
	// read at after it.
	var run func(st *codegen.VecState, vecs []*colvec.Vec, sel []int32) int
	switch ks := pl.ops; {
	case len(ks) > 0 && ks[0].kind == opFilter && ks[0].vec != nil:
		k := ks[0]
		run = func(st *codegen.VecState, vecs []*colvec.Vec, sel []int32) int {
			return len(k.vec.Filter(st, vecs, k.argIdx, len(sel), sel, nil)) + len(st.Bail())
		}
	case len(ks) == 0 && pl.aggFold != nil:
		run = func(st *codegen.VecState, vecs []*colvec.Vec, sel []int32) int {
			pl.aggFold.Select(st, vecs, 0, len(sel), sel)
			return len(st.Bail())
		}
	default:
		return
	}
	vecs := pl.parse.NewVecsFor()
	for _, rec := range records {
		pl.parse.ParseLineVecs(rec, vecs)
	}
	n := 0
	if len(vecs) > 0 {
		n = vecs[0].Len()
	}
	if n < vecMinRows {
		return
	}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	reads := &loadedRows{vecs: vecs, rows: make([]colvec.Bitmap, len(vecs))}
	st := codegen.NewVecState()
	st.SetLazy(reads)
	after := run(st, vecs, sel)
	fields := slices.Clone(pl.parse.Fields)
	lazy := false
	for i := range fields {
		k, _ := colvec.PayloadKind(fields[i].Type)
		read := max(after, reads.count(i))
		if (k == types.KindI64 || k == types.KindF64) && float64(read) <= lazyMaxShare*float64(n) {
			fields[i].Lazy, lazy = true, true
		}
	}
	if lazy {
		pl.parse = csvio.NewParseSpec(pl.parse.Delim, pl.parse.NumCols, fields, pl.parse.NullValues)
	}
}

// loadedRows is markLazy's codegen.Lazy: it notes the rows a vector
// program loads each column at, and converts nothing.
type loadedRows struct {
	vecs []*colvec.Vec
	rows []colvec.Bitmap
}

func (l *loadedRows) Ensure(v *colvec.Vec, sel []int32) {
	if i := slices.Index(l.vecs, v); i >= 0 {
		for _, r := range sel {
			l.rows[i].Set(int(r))
		}
	}
}

// count is the number of rows column i was loaded at.
func (l *loadedRows) count(i int) int {
	c := 0
	for _, w := range l.rows[i] {
		c += bits.OnesCount64(w)
	}
	return c
}

// lazyCols names the source columns the chunk parser converts on read
// (markLazy), "" when there are none.
func (pl *stagePlan) lazyCols() string {
	if pl.parse == nil {
		return ""
	}
	var names []string
	for i := range pl.parse.Fields {
		if pl.parse.IsLazy(i) {
			names = append(names, pl.inSchema.Col(i).Name)
		}
	}
	return strings.Join(names, ",")
}

// compileOps compiles the stage's operators, each once into its stageOp,
// and then the plan's batch program. It sees only plan state — never the
// run that triggered the compile — so nothing it closes over can be
// per-run.
// srcFacts seeds the dataflow analysis for the first UDF: per-column type
// facts plus sampled value statistics (constants, int ranges) for sources
// that sample values; nil means type facts only.
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

	schema := pl.inSchema
	pl.maxCols = schema.Len()
	frameIdx := 0
	// lastUDF is the UDF operator a following resolve() or ignore()
	// attaches to.
	var lastUDF *stageOp
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
		rec := &stageOp{ridx: int32(oi + 1), ki: len(pl.ops), inSchema: schema}
		// compile compiles the operator's UDF for a parameter of type
		// paramT: the whole row, or one column value when scalar.
		compile := func(spec *logical.UDFSpec, scalar bool, paramT types.Type, facts []dataflow.ColFact) {
			su := eng.compileUDF(spec, []types.Type{paramT}, facts, opName(op), pl.generalCase)
			su.frameIdx = frameIdx
			frameIdx++
			rec.su, rec.handlers, rec.scalar = su, &opHandlers{}, scalar
			if !scalar {
				rec.argCols = kernelArgCols(su, schema)
				rec.accessCols = boxedAccessCols(spec, schema)
			}
			lastUDF = rec
		}
		switch op := op.(type) {
		case *logical.MapOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			compile(op.UDF, scalar, paramT, colFacts)
			rec.kind = opMap
			schema = mapOutputSchema(rec.su)
			rec.outTypes = schemaTypes(schema)
			colFacts = typeColFacts(schema)

		case *logical.FilterOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			compile(op.UDF, scalar, paramT, colFacts)
			rec.kind = opFilter

		case *logical.WithColumnOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			compile(op.UDF, scalar, paramT, colFacts)
			retT := rec.su.returnType()
			replaceIdx, exists := schema.Lookup(op.Col)
			if !exists {
				replaceIdx = -1
			}
			rec.kind, rec.colIdx, rec.outTypes = opWithColumn, replaceIdx, []types.Type{retT}
			schema = schema.WithColumn(op.Col, retT)
			nf := append([]dataflow.ColFact(nil), colFacts...)
			if replaceIdx >= 0 && replaceIdx < len(nf) {
				nf[replaceIdx] = dataflow.ColFact{Type: retT}
			} else {
				nf = append(nf, dataflow.ColFact{Type: retT})
			}
			colFacts = nf

		case *logical.MapColumnOp:
			idx, ok := schema.Lookup(op.Col)
			if !ok {
				return fmt.Errorf("core: mapColumn: no column %q in %s", op.Col, schema)
			}
			compile(op.UDF, true, schema.Col(idx).Type, []dataflow.ColFact{colFacts[idx]})
			retT := rec.su.returnType()
			rec.kind, rec.argIdx, rec.colIdx, rec.outTypes = opMapColumn, idx, idx, []types.Type{retT}
			schema = schema.WithColumn(op.Col, retT)
			nf := append([]dataflow.ColFact(nil), colFacts...)
			nf[idx] = dataflow.ColFact{Type: retT}
			colFacts = nf

		case *logical.RenameOp:
			ns, err := schema.Rename(op.Old, op.New)
			if err != nil {
				return err
			}
			schema = ns
			continue

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
			rec.kind, rec.sel = opSelect, append([]int(nil), idx...)

		case *logical.ResolveOp:
			if lastUDF == nil {
				return fmt.Errorf("core: resolve() without a preceding UDF operator")
			}
			// A resolver takes the operator's input row and reads its own
			// columns of it.
			var cols []int
			if !lastUDF.scalar {
				cols = boxedAccessCols(op.UDF, lastUDF.inSchema)
			}
			lastUDF.handlers.resolvers = append(lastUDF.handlers.resolvers, resolverSpec{exc: op.Exc, spec: op.UDF, accessCols: cols})
			// Dead-resolver lint: the compiled normal-case path provably
			// never raises this kind. The resolver still applies on the
			// general path (non-conforming rows run full Python
			// semantics), so this is a warning, not an error.
			if su := lastUDF.su; !pl.generalCase && su.compiled != nil && su.flow != nil && !su.flow.MayRaise(op.Exc) {
				eng.warns.add(warnLint,
					"resolve(%s): the compiled normal-case path of the preceding UDF cannot raise %s; the resolver only applies to general-path rows",
					op.Exc, op.Exc)
			}
			continue

		case *logical.IgnoreOp:
			if lastUDF == nil {
				return fmt.Errorf("core: ignore() without a preceding UDF operator")
			}
			lastUDF.handlers.ignores = append(lastUDF.handlers.ignores, op.Exc)
			continue

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
			rec.kind, rec.colIdx, rec.joinIdx, rec.leftOuter = opJoin, keyIdx, ji, op.Left
			rec.outTypes = schemaTypes(outSchema)
			nf := append([]dataflow.ColFact(nil), colFacts...)
			for i := schema.Len(); i < outSchema.Len(); i++ {
				nf = append(nf, dataflow.ColFact{Type: outSchema.Col(i).Type})
			}
			colFacts = nf
			schema = outSchema

		default:
			return fmt.Errorf("core: unsupported operator %T", op)
		}
		rec.outSchema = schema
		if schema.Len() > pl.maxCols {
			pl.maxCols = schema.Len() + 8
		}
		pl.ops = append(pl.ops, rec)
	}

	pl.outSchema = schema
	pl.nUDFs = frameIdx + 1
	if !pl.generalCase && st.Terminal == physical.TerminalAggregate {
		agg := st.TerminalOp.(*logical.AggregateOp)
		eng.compileAggregate(pl, agg, schema)
	}
	// The batch plan: every operator's kernel, adjacent per-row kernels
	// grouped into fused passes that share one selection-vector scan, and
	// the terminal run batched (runBatchBody). A general plan is the
	// operators' kernels alone: resolve boxes what leaves them, and the
	// stage's terminal takes it from there.
	pl.groups = pl.fuseKernels()
	return nil
}

// schemaTypes lists a schema's column types.
func schemaTypes(s *types.Schema) []types.Type {
	ts := make([]types.Type, s.Len())
	for i := range ts {
		ts[i] = s.Col(i).Type
	}
	return ts
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
func (eng *engine) compileUDF(spec *logical.UDFSpec, paramTypes []types.Type, colFacts []dataflow.ColFact, label string, general bool) *stageUDF {
	su := &stageUDF{spec: spec}
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
	ph, t := eng.phases, time.Now()
	info, err := inference.TypeFunction(spec.Fn, paramTypes, globalTypes, infOpts)
	ph.lap(phInfer, &t)
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
	ph.lap(phDataflow, &t)
	su.flow = flow
	if !general {
		eng.reportLints(label, flow.Lints())
	}
	cgOpts := eng.opts.Codegen
	if cgOpts.Specialize {
		cgOpts.Flow = flow
	}
	t = time.Now() // lints are not a front-end phase
	u, err := codegen.Compile(info, spec.Globals, cgOpts)
	ph.lap(phCodegen, &t)
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

// maxPartRows caps the rows of one in-memory partition task.
const maxPartRows = 1 << 16

// partSize derives the rows per partition of an n-row in-memory source:
// four partitions per executor, between 1024 and maxPartRows rows each.
func (eng *engine) partSize(n int) int {
	return min(max(n/(4*eng.opts.Executors), 1024), maxPartRows)
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

// nextLine returns the text line starting at pos, without its "\n" or
// "\r\n" (no quoting), and the start of the next line.
func nextLine(data []byte, pos int) (line []byte, next int) {
	i := bytes.IndexByte(data[pos:], '\n')
	if i < 0 {
		return data[pos:], len(data)
	}
	end := pos + i
	if end > pos && data[end-1] == '\r' {
		end--
	}
	return data[pos:end], pos + i + 1
}
