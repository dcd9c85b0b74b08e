package core

// Columnar batch execution: the normal-case data plane, over column
// vectors, that every stage runs. Each stage compiles all of its
// map/filter/withColumn/mapColumn/select/join operators into batch
// kernels and runs its terminal batched. Every source yields batches:
// the generated CSV parser appends cells directly onto typed column
// vectors (internal/colvec), a text chunk's lines fill one string
// column, and a Parallelize range or a previous stage's output appends
// its slot rows. Adjacent per-row kernels fuse into one pass over the
// shared selection vector, joins probe the sharded build table and
// append the build columns (remapping the batch only when a key fans
// out), and filters shrink the selection instead of copying columns.
// A row's first failure pools its SOURCE row once (unscaled key), and
// resolve replays the source row through the stage's operators on the
// slower paths. Output bytes and row accounting equal those of a run in
// which every row goes through the tree-walking fallback
// (Options.FallbackOnly); the differential suites hold the plane to it.
//
// A fan-out join keeps a source row's output rows consecutive. The first
// failure of any of them drops all of them, earlier and later ones alike:
// the replay emits every match of the source row again.

import (
	"bytes"
	"cmp"
	"slices"
	"strings"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// batchMaxRows bounds one batch so vector memory stays bounded however
// large a chunk or in-memory partition is.
const batchMaxRows = 4096

// vecMinRows is the live-row count below which a batch stays on the row
// closures: a vector program pays a fixed cost per expression node per
// batch (the walk, a kernel call, register setup) that only rows
// amortize, and on a handful of rows — the inline sources of interactive
// jobs — the closures are cheaper.
const vecMinRows = 16

// fuseKernels stamps each kernel's vector program and partitions the
// plan's ops into fused passes: runs of adjacent map/filter/withColumn/
// mapColumn kernels execute in one scan over the selection vector;
// select and join kernels form singleton groups (they change the column
// layout / index space). A plan stripped of its vector programs (noVec)
// gets none.
func (pl *stagePlan) fuseKernels() [][]*stageOp {
	var groups [][]*stageOp
	var cur []*stageOp
	for _, k := range pl.ops {
		k.vec, k.rowWhy = kernelVec(k)
		if pl.noVec {
			k.vec = nil
		}
		switch k.kind {
		case opSelect, opJoin:
			if len(cur) > 0 {
				groups = append(groups, cur)
				cur = nil
			}
			groups = append(groups, []*stageOp{k})
		default:
			cur = append(cur, k)
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// kernelVec returns the vector program kernel k can run in place of its
// row closure, or nil and what keeps it on the closure.
func kernelVec(k *stageOp) (*codegen.VecExpr, string) {
	if k.su == nil {
		return nil, ""
	}
	if k.su.compiled == nil {
		return nil, "uncompiled"
	}
	v := k.su.compiled.Vec
	switch {
	case v == nil:
		return nil, k.su.compiled.VecDecline
	case k.kind == opFilter:
		return v, ""
	case k.kind == opMap:
		return nil, "map kernel"
	}
	// The derived vector is typed from the stage's schema; the program
	// writes its own kind (and nulls, for an Option) and nothing else.
	if dk, _ := colvec.PayloadKind(k.outTypes[0]); dk != v.Kind() {
		return nil, "column typed " + k.outTypes[0].String()
	}
	return v, ""
}

// kernelModes renders the plan's batch kernels (and a batch-executed
// aggregate terminal) as "op:vec" / "op:row(why)" entries for the compile
// span, so a UDF that stopped vectorizing — and the node that stopped it —
// shows without a profiler.
func (pl *stagePlan) kernelModes() string {
	var parts []string
	for _, k := range pl.ops {
		switch {
		case k.su == nil:
		case k.vec != nil:
			parts = append(parts, pl.opNames[k.ridx]+":vec")
		default:
			parts = append(parts, pl.opNames[k.ridx]+":row("+k.rowWhy+")")
		}
	}
	if pl.terminal == physical.TerminalAggregate {
		name := pl.opNames[pl.termRouteIdx]
		switch {
		case pl.aggFold != nil:
			parts = append(parts, name+":vec")
		case pl.aggUDF != nil && pl.aggUDF.compiled != nil:
			parts = append(parts, name+":row("+pl.aggUDF.compiled.VecDecline+")")
		default:
			parts = append(parts, name+":row(uncompiled)")
		}
	}
	return strings.Join(parts, ",")
}

// batchState is the per-task reusable batch memory: ingest target
// vectors, per-kernel derived vectors, selection double-buffer, order
// keys and source rows of the current batch, plus the join index-space
// remapping state.
type batchState struct {
	src     []*colvec.Vec
	derived [][]*colvec.Vec
	cols    []*colvec.Vec
	cols2   []*colvec.Vec
	sel     []int32
	sel2    []int32
	// keys / raws / srcRows are indexed by SOURCE batch position: the
	// per-record order keys, raw records (parse ingest) and slot rows
	// (slot ingest) of the rows that survived classification.
	keys    []uint64
	raws    [][]byte
	srcRows []rows.Row
	argBuf  []rows.Slot
	// chunk is the chunk parser's per-batch output (streamed CSV); raws
	// aliases its record spans.
	chunk csvio.ChunkBatch

	// n is the current index-space size: the source row count until a
	// fan-out join remaps the batch to its output space.
	n int

	// srcIdx maps current index → source index (nil = identity, until a
	// fan-out join; a unique-key join keeps the index space); outKeys
	// carries a fan-out join's scaled order keys (nil = bst.keys). keyShift
	// is the unique-key joins' key*256 scaling since then, applied by
	// keyOf. The *2 twins are the swap spares.
	srcIdx, srcIdx2   []int32
	outKeys, outKeys2 []uint64
	keyShift          uint
	// refs holds the join probe's match per output row (-1: a left
	// join's miss).
	refs []buildRef

	// dropped marks current-index rows of a source that failed in the
	// current pass (runKernels removes them from the selection after it);
	// pooledSrc marks source rows already pooled (one pool entry per
	// source row).
	dropped, pooledSrc    colvec.Bitmap
	anyDropped, anyPooled bool

	// Fused-pass scratch: per-kernel input column views (arena-backed),
	// the set of vectors writable within the current group, the per-
	// kernel argument accessors, and the CSV renderer's per-column
	// no-null flags.
	views     [][]*colvec.Vec
	viewArena []*colvec.Vec
	writeSet  []*colvec.Vec
	argFns    []func(int32) rows.Slot
	noNull    []bool

	// vec is the scratch of the stage's vector programs (registers,
	// selection buffers, bail list).
	vec *codegen.VecState

	// lazy marks a stage whose chunk parser leaves lazy columns'
	// cells unconverted (stagePlan.markLazy): every reader of the source
	// vectors has them converted first — vector programs at each load
	// (through vec), the rest through ensure.
	lazy bool
}

func newBatchState(pl *stagePlan) *batchState {
	bst := &batchState{}
	if pl.parse != nil {
		bst.src = pl.parse.NewVecsFor()
	} else {
		bst.src = make([]*colvec.Vec, pl.inSchema.Len())
		for i := range bst.src {
			bst.src[i] = colvec.NewVec(pl.inSchema.Col(i).Type)
		}
	}
	bst.derived = make([][]*colvec.Vec, len(pl.ops))
	for ki, k := range pl.ops {
		if len(k.outTypes) == 0 {
			continue
		}
		vecs := make([]*colvec.Vec, len(k.outTypes))
		for j, t := range k.outTypes {
			vecs[j] = colvec.NewVec(t)
		}
		bst.derived[ki] = vecs
	}
	bst.argBuf = make([]rows.Slot, pl.maxCols)
	bst.vec = codegen.NewVecState()
	if pl.parse != nil && pl.parse.HasLazy() {
		bst.lazy = true
		bst.vec.SetLazy(&bst.chunk)
	}
	return bst
}

// ensure converts the lazy source cells at the rows of sel before a
// reader other than a vector program's load reads the batch's columns
// there. After a fan-out join the columns are copies, converted when the
// join read them.
func (bst *batchState) ensure(sel []int32) {
	if bst.lazy && bst.srcIdx == nil {
		bst.chunk.EnsureAll(sel)
	}
}

// getBatchState takes a batch-state from the stage pool (or builds one).
func (sr *stageRun) getBatchState(ts *task) *batchState {
	if ts.bst == nil {
		if got, ok := sr.bstPool.Get().(*batchState); ok {
			ts.bst = got
		} else {
			ts.bst = newBatchState(sr.stagePlan)
		}
	}
	return ts.bst
}

// reserve sizes a fresh batch state's source vectors and order keys for
// a first batch of about n rows; the caller sizes its list of record
// spans. Grown by append instead, a 2.5k-row batch allocates over three
// times what it keeps, once per executor and stage.
func (bst *batchState) reserve(n int) {
	for _, v := range bst.src {
		v.Reserve(n)
	}
	bst.keys = slices.Grow(bst.keys, n)
}

// fresh reports that the batch state has run no batch yet.
func (bst *batchState) fresh() bool { return cap(bst.keys) == 0 }

// firstBatchRows estimates the rows of the first batch over data by its
// line count (a quoted newline counts too), capped at batchMaxRows.
func firstBatchRows(data []byte) int {
	return min(batchMaxRows, bytes.Count(data, newline)+1)
}

var newline = []byte{'\n'}

// putBatchState returns the batch memory to the stage pool: nothing in
// it escapes the task (strings are sealed views under the donated-buffer
// protocol, pooled raw records were detached, output rows have fresh
// backing and output vectors copy their cells).
func (sr *stageRun) putBatchState(ts *task) {
	bst := ts.bst
	ts.bst = nil
	sr.bstPool.Put(bst)
}

// beginBatch resets the per-batch state: ingest vectors, index-space
// remaps (back to identity) and failure bitmaps.
func (bst *batchState) beginBatch() {
	for _, v := range bst.src {
		v.Reset()
	}
	bst.keys = bst.keys[:0]
	bst.srcIdx2 = bst.srcIdx[:0]
	bst.srcIdx = nil
	bst.outKeys2 = bst.outKeys[:0]
	bst.outKeys = nil
	bst.keyShift = 0
	bst.dropped.Reset()
	bst.pooledSrc.Reset()
	bst.anyDropped, bst.anyPooled = false, false
}

// srcOf maps a current-index row to its source batch position.
func (bst *batchState) srcOf(r int32) int32 {
	if bst.srcIdx == nil {
		return r
	}
	return bst.srcIdx[r]
}

// keyOf is the row's order key in the current index space (join-scaled
// after a join kernel, the source key before).
func (bst *batchState) keyOf(r int32) uint64 {
	if bst.outKeys == nil {
		return bst.keys[r] << bst.keyShift
	}
	return bst.outKeys[r] << bst.keyShift
}

// sourceEx builds the pool entry for source row sr: raw record bytes on
// the parse path, boxed source values on the slot path. The key is the
// SOURCE order key — resolve replays the stage's ops from source values
// and rescales per join.
func (bst *batchState) sourceEx(p int, sr int32, ec ECode, op int32) exRow {
	ex := exRow{part: p, key: bst.keys[sr], ec: ec, op: op}
	if bst.raws != nil {
		ex.raw = bst.raws[sr]
	} else {
		ex.vals = rows.RowToValues(bst.srcRows[sr])
	}
	return ex
}

// failBatchRow handles a normal-path failure at current-index row r: it
// pools the source row once and drops every output row of that source,
// which the fallback's replay emits. Returns 1 iff a new pool entry was
// made: one exception per source row.
func (sr *stageRun) failBatchRow(ts *task, bst *batchState, p int, r int32, ec ECode, op int32) int64 {
	src := bst.srcOf(r)
	if bst.srcIdx != nil {
		// Join fan-out keeps a source's output rows consecutive.
		lo := int(r)
		for lo > 0 && bst.srcIdx[lo-1] == src {
			lo--
		}
		for nr := lo; nr < bst.n && bst.srcIdx[nr] == src; nr++ {
			bst.dropped.Set(nr)
		}
		bst.anyDropped = true
	}
	if bst.anyPooled && bst.pooledSrc.Get(int(src)) {
		return 0
	}
	bst.pooledSrc.Set(int(src))
	bst.anyPooled = true
	ts.pool = append(ts.pool, bst.sourceEx(p, src, ec, op))
	if ts.routeExc != nil {
		ts.routeExc[op]++
	}
	return 1
}

// runChunkColumnar runs a CSV chunk on the batch plan: each batch is one
// csvio.ParseChunk call straight into the source vectors, with the
// accepted records' spans in bst.raws and no record list for the chunk.
// The chunk's record i has order key i; a record the parser rejects is
// pooled raw, and every other one enters the kernels.
func (sr *stageRun) runChunkColumnar(ts *task, p int, data []byte) {
	bst := sr.getBatchState(ts)
	cb := &bst.chunk
	if bst.fresh() {
		n := firstBatchRows(data)
		bst.reserve(n)
		cb.Raws = slices.Grow(cb.Raws, n)
	}
	var input, rejects, normalExc int64
	for pos := 0; pos < len(data); {
		bst.beginBatch()
		bst.srcRows = nil
		pool0 := len(ts.pool)
		pos = sr.parse.ParseChunk(data, pos, batchMaxRows, bst.src, cb)
		if cb.Records == 0 {
			break // the chunk ended in an empty record
		}
		bst.raws = cb.Raws
		// The accepted records' keys run consecutively between rejects.
		key, next := uint64(input), 0
		for _, rj := range cb.Rejects {
			bst.keys = appendKeys(bst.keys, key+uint64(next), rj.Rec-next)
			ts.pool = append(ts.pool, exRow{part: p, key: key + uint64(rj.Rec), raw: rj.Raw, ec: rj.EC})
			if ts.route != nil {
				sr.countReject(ts, rj.Raw)
			}
			next = rj.Rec + 1
		}
		bst.keys = appendKeys(bst.keys, key+uint64(next), cb.Records-next)
		input += int64(cb.Records)
		rejects += int64(len(cb.Rejects))
		ts.parseSlow += int64(cb.Slow)
		normalExc += sr.runBatchBody(ts, bst, p, pool0)
		ts.lazyCells += int64(cb.LazyCells)
		ts.lazyConverted += int64(cb.Converted)
	}
	ts.finishRows(input, rejects, normalExc)
	sr.putBatchState(ts)
}

// appendKeys appends the n consecutive order keys from k to keys.
func appendKeys(keys []uint64, k uint64, n int) []uint64 {
	l := len(keys)
	keys = slices.Grow(keys, n)[:l+n]
	for i := range keys[l:] {
		keys[l+i] = k + uint64(i)
	}
	return keys
}

// runTextColumnar is runChunkColumnar for a text source: each line of the
// chunk is one row of the single string column, and its span goes in
// bst.raws as a CSV record's does (a text stage's batch memory holds no
// chunk parse, so bst.raws is its own list). The chunk's line i has
// order key i; a line never rejects.
func (sr *stageRun) runTextColumnar(ts *task, p int, data []byte) {
	bst := sr.getBatchState(ts)
	if bst.fresh() {
		n := firstBatchRows(data)
		bst.reserve(n)
		bst.raws = slices.Grow(bst.raws, n)
	}
	col := bst.src[0]
	var input, normalExc int64
	for pos := 0; pos < len(data); {
		bst.beginBatch()
		bst.raws, bst.srcRows = bst.raws[:0], nil
		pool0 := len(ts.pool)
		for n := 0; n < batchMaxRows && pos < len(data); n++ {
			var line []byte
			line, pos = nextLine(data, pos)
			col.AppendStrBytes(line)
			bst.raws = append(bst.raws, line)
			bst.keys = append(bst.keys, uint64(input))
			input++
		}
		normalExc += sr.runBatchBody(ts, bst, p, pool0)
	}
	ts.finishRows(input, 0, normalExc)
	sr.putBatchState(ts)
}

// runRowsColumnar is the batch plan over an in-memory partition: a
// Parallelize range (order keys are row indexes), whose non-conforming
// rows pool boxed as classifier rejects, or an interior stage's share of
// the previous stage's output (order keys travel with the rows), whose
// rows all enter the normal case. A row
// closure upstream may have left a cell whose kind its column's type
// does not name (max(a, 2.5) is an int): AppendCell keeps it, widening
// the batch's source vector, and a vector program over that column
// hands the batch back to the row closures.
func (sr *stageRun) runRowsColumnar(ts *task, p int) {
	bst := sr.getBatchState(ts)
	var part []rows.Row
	var keys []uint64
	base := 0
	if in := sr.input; in != nil {
		part, keys = in.parts[p], in.keys[p]
	} else {
		rg := sr.partRanges[p]
		part, base = sr.inputSlots[rg[0]:rg[1]], rg[0]
	}
	var input, rejects, normalExc int64
	for start := 0; start < len(part); start += batchMaxRows {
		end := min(start+batchMaxRows, len(part))
		input += int64(end - start)

		bst.beginBatch()
		bst.raws = nil
		bst.srcRows = bst.srcRows[:0]
		pool0 := len(ts.pool)
		for c, v := range bst.src {
			v.Retype(sr.inSchema.Col(c).Type) // undo the last batch's widening
		}
		for i := start; i < end; i++ {
			src := part[i]
			key := uint64(base + i)
			if keys != nil {
				key = keys[i]
			} else if !rowConforms(src, sr.inSchema) {
				rejects++
				ts.pool = append(ts.pool, exRow{part: p, key: key, vals: rows.RowToValues(src), ec: pyvalue.ExcBadParse})
				continue
			}
			for c, v := range bst.src {
				v.AppendCell(src[c])
			}
			bst.keys = append(bst.keys, key)
			bst.srcRows = append(bst.srcRows, src)
		}
		normalExc += sr.runBatchBody(ts, bst, p, pool0)
	}
	ts.finishRows(input, rejects, normalExc)
	sr.putBatchState(ts)
}

// runBatchBody executes the kernel groups and the terminal over one
// ingested batch, or under Options.FallbackOnly pools all of it
// (poolBatch). Returns the normal-path exception count (one per failed
// source row). The batch's pool entries start at ts.pool[pool0]: the
// rejects its ingest pooled, then what each kernel pass and the terminal
// pool. A pool lists its rows in input order, so the batch's entries are
// put in key order (keys ascend with the input rows) once the body has
// run.
func (sr *stageRun) runBatchBody(ts *task, bst *batchState, p, pool0 int) int64 {
	var normalExc int64
	if ts.eng.opts.FallbackOnly {
		normalExc = sr.poolBatch(ts, bst, p)
	} else {
		normalExc = sr.runKernels(ts, bst, p)
		ts.columnarRows += int64(len(bst.sel))
		normalExc += sr.runTerminal(ts, bst, p)
	}
	sortPool(ts.pool[pool0:])
	return normalExc
}

// poolBatch pools every row of the batch for the fallback, with the
// values the normal path read: the source vectors' cells, lazy ones
// converted, or an in-memory row's slots. (Parsing the raw record again
// could read a cell otherwise: csvio.GeneralFields types a cell by its
// spelling, the normal path by its column.) A record keeps its raw bytes
// too, so a failed row renders its input as in any run.
func (sr *stageRun) poolBatch(ts *task, bst *batchState, p int) int64 {
	bst.selectAll()
	bst.ensure(bst.sel)
	for i, key := range bst.keys {
		ex := exRow{part: p, key: key, ec: pyvalue.ExcUnsupported}
		if bst.srcRows != nil {
			ex.vals = rows.RowToValues(bst.srcRows[i])
		} else {
			ex.raw = bst.raws[i]
			ex.vals = make([]pyvalue.Value, len(bst.src))
			for c, v := range bst.src {
				ex.vals[c] = boxCell(v, i)
			}
		}
		ts.pool = append(ts.pool, ex)
	}
	if ts.routeExc != nil {
		ts.routeExc[0] += int64(len(bst.keys))
	}
	return int64(len(bst.keys))
}

// runTerminal runs the stage's terminal over the batch's surviving rows.
// Returns the normal-path exception count.
func (sr *stageRun) runTerminal(ts *task, bst *batchState, p int) int64 {
	if sr.terminal == physical.TerminalAggregate {
		return sr.aggregateBatch(ts, bst, p)
	}
	if ts.route != nil {
		ts.route[sr.termRouteIdx] += int64(len(bst.sel))
	}
	bst.ensure(bst.sel)
	switch {
	case sr.emit == emitCSV:
		sr.renderBatchCSV(ts, bst)
	case sr.emit == emitVecs:
		sr.collectBatch(ts, bst)
	case sr.terminal == physical.TerminalUnique:
		sr.uniqueBatch(ts, bst)
	default:
		sr.gatherBatch(ts, bst)
	}
	return 0
}

// sortPool puts one batch's pool entries in key order, unless they
// already are.
func sortPool(pooled []exRow) {
	byKey := func(a, b exRow) int { return cmp.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(pooled, byKey) {
		slices.SortStableFunc(pooled, byKey)
	}
}

// runKernels selects every ingested row of the batch and runs the kernel
// groups over it, leaving the survivors in bst.sel and their columns in
// bst.cols. Returns the normal-path exception count.
func (sr *stageRun) runKernels(ts *task, bst *batchState, p int) int64 {
	bst.selectAll()
	bst.cols = append(bst.cols[:0], bst.src...)

	var normalExc int64
	for _, g := range sr.groups {
		switch g[0].kind {
		case opJoin:
			normalExc += sr.runJoinKernel(ts, bst, g[0], p)
		case opSelect:
			k := g[0]
			if ts.route != nil {
				ts.route[k.ridx] += int64(len(bst.sel))
			}
			out := bst.cols2[:0]
			for _, i := range k.sel {
				out = append(out, bst.cols[i])
			}
			bst.cols, bst.cols2 = out, bst.cols
		default:
			normalExc += sr.runGroup(ts, bst, g, p)
		}
		if bst.anyDropped {
			// A fan-out source failed after some of its rows had passed.
			bst.sel = slices.DeleteFunc(bst.sel, func(r int32) bool { return bst.dropped.Get(int(r)) })
			bst.dropped.Reset()
			bst.anyDropped = false
		}
	}
	return normalExc
}

// selectAll selects every ingested row of the batch, in the source index
// space.
func (bst *batchState) selectAll() {
	n := len(bst.keys)
	bst.n = n
	bst.sel = bst.sel[:0]
	for i := 0; i < n; i++ {
		bst.sel = append(bst.sel, int32(i))
	}
}

// layoutAfter simulates kernel k's column-layout transformation over an
// input view (layout is row-independent, so each fused pass computes
// every kernel's input view once per batch).
func layoutAfter(bst *batchState, k *stageOp, in []*colvec.Vec) []*colvec.Vec {
	d := bst.derived[k.ki]
	switch k.kind {
	case opFilter:
		return in
	case opMap:
		return d
	case opMapColumn:
		out := bst.carve(len(in))
		copy(out, in)
		out[k.colIdx] = d[0]
		return out
	case opWithColumn:
		if k.colIdx >= 0 {
			out := bst.carve(len(in))
			copy(out, in)
			out[k.colIdx] = d[0]
			return out
		}
		out := bst.carve(len(in) + 1)
		copy(out, in)
		out[len(in)] = d[0]
		return out
	}
	return in
}

// carve takes an n-slot view from the arena (capped so later carves
// never stomp it; a reallocation strands already-filled views safely).
func (bst *batchState) carve(n int) []*colvec.Vec {
	start := len(bst.viewArena)
	if cap(bst.viewArena)-start < n {
		bst.viewArena = append(bst.viewArena, make([]*colvec.Vec, n)...)
	} else {
		bst.viewArena = bst.viewArena[:start+n]
	}
	return bst.viewArena[start : start+n : start+n]
}

// argAccessor builds kernel k's per-row argument reader against its
// input view. Scalar kernels over a column the batch proves all-valid —
// and that no kernel in the current fused group writes — dispatch to a
// null-check-elided variant reading a re-sliced typed array (bounds
// checks hoisted to the [:n] re-slice).
func (sr *stageRun) argAccessor(ts *task, bst *batchState, k *stageOp, view []*colvec.Vec, n int) func(int32) rows.Slot {
	if !k.scalar {
		return func(r int32) rows.Slot { return gatherArgView(k, view, bst, int(r)) }
	}
	v := view[k.argIdx]
	writable := false
	for _, w := range bst.writeSet {
		if w == v {
			writable = true
			break
		}
	}
	if !writable && v.AllValid() {
		switch v.Kind {
		case types.KindI64:
			ts.nullElided++
			vals := v.I[:n]
			return func(r int32) rows.Slot { return rows.I64(vals[r]) }
		case types.KindF64:
			ts.nullElided++
			vals := v.F[:n]
			return func(r int32) rows.Slot { return rows.F64(vals[r]) }
		case types.KindBool:
			ts.nullElided++
			vals := v.B[:n]
			return func(r int32) rows.Slot { return rows.Bool(vals[r]) }
		case types.KindStr:
			ts.nullElided++
			return func(r int32) rows.Slot { return rows.Str(v.Str(int(r))) }
		}
	}
	ts.nullChecked++
	return func(r int32) rows.Slot { return v.Slot(int(r)) }
}

// runGroup executes one fused group. Static per-batch setup (input
// views, derived vectors, argument accessors) is shared; then maximal
// runs of row kernels execute as one scan of the selection vector with
// per-row filter short-circuits, and each vector kernel as one pass of
// its own. Vector kernels run only on batches of at least vecMinRows
// live rows, and only while the batch keeps its source index space:
// after a fan-out join has remapped it, every kernel runs its row
// closure. A unique-key join keeps the index space, and the vector path
// with it.
func (sr *stageRun) runGroup(ts *task, bst *batchState, group []*stageOp, p int) int64 {
	n := bst.n
	bst.viewArena = bst.viewArena[:0]
	bst.views = bst.views[:0]
	cur := bst.cols
	for _, k := range group {
		bst.views = append(bst.views, cur)
		for j, v := range bst.derived[k.ki] {
			v.Retype(k.outTypes[j]) // a row result may have widened it (colvec.Set)
			v.Grow(n)
		}
		cur = layoutAfter(bst, k, cur)
	}
	final := cur
	bst.writeSet = bst.writeSet[:0]
	for _, k := range group {
		bst.writeSet = append(bst.writeSet, bst.derived[k.ki]...)
	}
	bst.argFns = bst.argFns[:0]
	for gi, k := range group {
		bst.argFns = append(bst.argFns, sr.argAccessor(ts, bst, k, bst.views[gi], n))
	}

	vecOK := bst.srcIdx == nil && len(bst.sel) >= vecMinRows
	var excs int64
	for lo := 0; lo < len(group); {
		if vecOK && group[lo].vec != nil {
			excs += sr.runVecKernel(ts, bst, group[lo], lo, p)
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(group) && !(vecOK && group[hi].vec != nil) {
			hi++
		}
		excs += sr.runRowKernels(ts, bst, group, lo, hi, p)
		lo = hi
	}
	bst.cols = append(bst.cols[:0], final...)
	ts.fusedPasses++
	return excs
}

// runRowKernels runs kernels group[lo:hi] over each live row in a single
// scan of the selection vector, with the shared drop/pool failure
// protocol.
//
//tuplex:kernel
func (sr *stageRun) runRowKernels(ts *task, bst *batchState, group []*stageOp, lo, hi, p int) int64 {
	bst.ensure(bst.sel)
	var excs int64
	newSel := bst.sel2[:0]
rowLoop:
	for _, r := range bst.sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		for gi := lo; gi < hi; gi++ {
			k := group[gi]
			if ts.route != nil {
				ts.route[k.ridx]++
			}
			v, ec := callKernelUDF(ts, k.su, bst.argFns[gi](r))
			if ec != 0 {
				excs += sr.failBatchRow(ts, bst, p, r, ec, k.ridx)
				continue rowLoop
			}
			derived := bst.derived[k.ki]
			switch k.kind {
			case opFilter:
				if !v.Truth() {
					continue rowLoop
				}
			case opMap:
				switch {
				case len(v.Seq) > 0 && (v.Tag == types.KindDict || v.Tag == types.KindTuple):
					if len(v.Seq) != len(derived) {
						excs += sr.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
						continue rowLoop
					}
					for j := range derived {
						derived[j].Set(int(r), v.Seq[j])
					}
				case len(derived) == 1:
					derived[0].Set(int(r), v)
				default:
					excs += sr.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
					continue rowLoop
				}
			case opWithColumn, opMapColumn:
				derived[0].Set(int(r), v)
			}
		}
		newSel = append(newSel, r)
	}
	bst.sel, bst.sel2 = newSel, bst.sel
	return excs
}

// runVecKernel runs vector kernel group[gi] = k as one pass over the
// selection: the program refines the selection (filter) or fills the
// derived vector (withColumn/mapColumn), and the rows it bailed on are
// replayed through the row closure, which decides them exactly as the
// row scan would have — same value, same exception, same pool entry.
//
//tuplex:kernel
func (sr *stageRun) runVecKernel(ts *task, bst *batchState, k *stageOp, gi, p int) int64 {
	sel, st := bst.sel, bst.vec
	if ts.route != nil {
		ts.route[k.ridx] += int64(len(sel))
	}
	ts.vectorRows += int64(len(sel))
	filter := k.kind == opFilter
	var out []int32 // filter: the rows the program accepted
	var d *colvec.Vec
	if filter {
		out = k.vec.Filter(st, bst.views[gi], k.argIdx, bst.n, sel, bst.sel2[:0])
	} else {
		d = bst.derived[k.ki][0]
		k.vec.Eval(st, bst.views[gi], k.argIdx, bst.n, sel, d)
	}
	bail := st.Bail()
	ts.vectorBail += int64(len(bail))
	// The replay reads every column its row closure reads, lazy ones
	// too, at rows the program may have left before loading them.
	bst.ensure(bail)
	// Replay. A bailed row is out of a filter's result and still in a
	// column kernel's selection; bail[:m] collects the rows the replay
	// decides otherwise — passing filter rows, failed column rows.
	var excs int64
	m := 0
	for _, r := range bail {
		v, ec := callKernelUDF(ts, k.su, bst.argFns[gi](r))
		switch {
		case ec != 0:
			excs += sr.failBatchRow(ts, bst, p, r, ec, k.ridx)
			if !filter {
				bail[m] = r
				m++
			}
		case !filter:
			d.Set(int(r), v)
		case v.Truth():
			bail[m] = r
			m++
		}
	}
	switch {
	case !filter && m > 0:
		out = slices.Grow(bst.sel2[:0], len(sel))[:len(sel)-m]
		codegen.SubtractSel(sel, bail[:m], out)
		bst.sel, bst.sel2 = out, sel
	case filter && m > 0:
		// The input selection's storage is free once the program is done.
		merged := sel[:len(out)+m]
		codegen.MergeSel(out, bail[:m], merged)
		bst.sel, bst.sel2 = merged, out
	case filter:
		bst.sel, bst.sel2 = out, sel
	}
	return excs
}

// runJoinKernel probes the sharded build table for each live row,
// recording its (row, ref) match pairs, then fills the output one column
// at a time. Against a unique-key table (bt.unique) the join is a
// selection refinement: the probe columns stay as they are, each build
// column is taken at its row's own position, and the order keys scale by
// 256 through keyShift — the batch keeps its index space, and the vector
// kernels after the join keep running. A fan-out table remaps the batch
// to its output space (srcIdx tracks each output row's source; outKeys
// carries key*256+sub order keys, sub being the match's position among
// its probe row's matches, capped at 255).
//
//tuplex:kernel
func (sr *stageRun) runJoinKernel(ts *task, bst *batchState, k *stageOp, p int) int64 {
	bt := sr.joins[k.joinIdx]
	keyVec := bst.cols[k.colIdx]
	bst.ensure(bst.sel)
	var excs int64
	at, refs := bst.sel2[:0], bst.refs[:0]
	for _, r := range bst.sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		if ts.route != nil {
			ts.route[k.ridx]++
		}
		buf, ok := rows.AppendJoinKey(ts.keyBuf[:0], keyVec.Slot(int(r)))
		ts.keyBuf = buf
		var matches []buildRef
		if ok {
			if bt.genCount > 0 && len(bt.general[string(buf)]) > 0 {
				// Normal×exception join pairs run on the exception path
				// (§4.5 pairwise joins).
				excs += sr.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
				continue
			}
			matches = bt.lookup(rows.Hash64(buf), buf)
		}
		if len(matches) == 0 {
			ts.probeMisses++
			if k.leftOuter {
				at = append(at, r)
				refs = append(refs, -1)
			}
			continue
		}
		ts.probeHits++
		for _, ref := range matches {
			at = append(at, r)
			refs = append(refs, ref)
		}
	}
	if bst.anyDropped {
		// A failing probe dropped rows of its source matched before it.
		n := 0
		for i, r := range at {
			if !bst.dropped.Get(int(r)) {
				at[n], refs[n] = r, refs[i]
				n++
			}
		}
		at, refs = at[:n], refs[:n]
	}
	bst.refs = refs
	nIn, derived := k.inSchema.Len(), bst.derived[k.ki]
	n, dst := bst.n, at // unique keys: each build cell lands at its probe row
	if !bt.unique {
		n, dst = len(at), nil
	}
	for c, d := range derived[nIn:] {
		d.Retype(k.outTypes[nIn+c])
		d.Grow(n)
		takeBuild(d, bt, c, refs, dst)
	}
	if bt.unique {
		bst.sel, bst.sel2 = at, bst.sel
		bst.cols = append(bst.cols, derived[nIn:]...)
		bst.keyShift += 8
		return excs
	}

	newKeys, newSrc := bst.outKeys2[:0], bst.srcIdx2[:0]
	var sub uint64
	for i, r := range at {
		if i > 0 && at[i-1] == r {
			sub = min(sub+1, 255)
		} else {
			sub = 0
		}
		newKeys = append(newKeys, bst.keyOf(r)*256+sub)
		newSrc = append(newSrc, bst.srcOf(r))
	}
	for c, d := range derived[:nIn] {
		d.Retype(k.outTypes[c])
		d.AppendSel(bst.cols[c], at)
	}
	sel := bst.sel[:0]
	for i := range n {
		sel = append(sel, int32(i))
	}
	bst.sel, bst.sel2 = sel, at
	bst.outKeys, bst.outKeys2 = newKeys, bst.outKeys[:0]
	bst.srcIdx, bst.srcIdx2 = newSrc, bst.srcIdx[:0]
	bst.keyShift = 0
	bst.cols = append(bst.cols[:0], derived...)
	bst.n = n
	// New index space: drop marks from the input space don't carry over
	// (the surviving rows were re-emitted above).
	bst.dropped.Reset()
	bst.anyDropped = false
	return excs
}

// takeBuild fills d with build column c of a join's matches: refs[i]'s
// cell lands at row at[i] (row i when at is nil), a left join's miss
// (ref < 0) as a null.
//
//tuplex:kernel
func takeBuild(d *colvec.Vec, bt *buildTable, c int, refs []buildRef, at []int32) {
	for i, ref := range refs {
		j := i
		if at != nil {
			j = int(at[i])
		}
		if ref < 0 {
			d.SetNull(j)
			continue
		}
		d.SetFrom(bt.bparts[ref>>32][c], int(int32(ref)), j)
	}
}

// gatherArgView assembles a whole-row UDF argument for batch row r from
// the kernel's input view: the row tuple with only the accessed (and
// guarded) columns filled — unread positions keep stale slots that the
// compiled body never loads.
//
//tuplex:kernel
func gatherArgView(k *stageOp, view []*colvec.Vec, bst *batchState, r int) rows.Slot {
	n := k.inSchema.Len()
	row := bst.argBuf[:n]
	if k.argCols == nil {
		for c, v := range view[:n] {
			row[c] = v.Slot(r)
		}
	} else {
		for _, c := range k.argCols {
			row[c] = view[c].Slot(r)
		}
	}
	return rows.Tuple(row)
}

// callKernelUDF calls a UDF's compiled row closure on its gathered
// argument (ExcUnsupported when the UDF has none).
func callKernelUDF(ts *task, su *stageUDF, arg rows.Slot) (rows.Slot, ECode) {
	if su.compiled == nil {
		return rows.Slot{}, pyvalue.ExcUnsupported
	}
	return su.compiled.Call1(ts.frames[su.frameIdx], arg)
}

// renderBatchCSV renders the live rows straight from the vectors into
// the task's CSV writer — no row materialization, no per-cell strings.
// Columns the batch proves all-valid skip the per-cell null check.
//
//tuplex:kernel
func (sr *stageRun) renderBatchCSV(ts *task, bst *batchState) {
	w := ts.csvW
	noNull := bst.noNull[:0]
	for _, v := range bst.cols {
		nv := v.AllValid()
		if nv {
			ts.nullElided++
		} else {
			ts.nullChecked++
		}
		noNull = append(noNull, nv)
	}
	bst.noNull = noNull
	for _, r := range bst.sel {
		ri := int(r)
		for c, v := range bst.cols {
			if c > 0 {
				w.Delim()
			}
			if !noNull[c] && v.IsNull(ri) {
				continue
			}
			switch v.Kind {
			case types.KindBool:
				w.CellBool(v.B[ri])
			case types.KindI64:
				w.CellI64(v.I[ri])
			case types.KindF64:
				w.CellF64(v.F[ri])
			case types.KindStr:
				w.CellStrBytes(v.RawStr(ri))
			case types.KindNull:
			default:
				w.CellSlot(v.Slots[ri])
			}
		}
		w.EndRecord()
		ts.lineEnds = append(ts.lineEnds, w.Len())
		ts.outKeys = append(ts.outKeys, bst.keyOf(r))
	}
}

// uniqueBatch feeds the live rows into the task's open distinct set in
// selection order, keyed by their encoded cells (the columnar unique
// terminal).
//
//tuplex:kernel
func (sr *stageRun) uniqueBatch(ts *task, bst *batchState) {
	for _, r := range bst.sel {
		row := ts.rowBuf[:len(bst.cols)]
		for c, v := range bst.cols {
			row[c] = v.Slot(int(r))
		}
		buf := rows.AppendRowKey(ts.keyBuf[:0], row)
		ts.keyBuf = buf
		ts.uniq.insert(rows.Hash64(buf), buf, row, bst.keyOf(r))
	}
}

// aggregateBatch folds the live rows into the task's accumulator slot
// (the columnar aggregate terminal). An aggregate matching the fold
// table runs as a vector fold unless a fan-out join remapped the batch;
// everything else folds row by row.
func (sr *stageRun) aggregateBatch(ts *task, bst *batchState, p int) int64 {
	if f := sr.aggFold; f != nil && bst.srcIdx == nil && len(bst.sel) >= vecMinRows && ts.aggSlot.Tag == f.Kind() {
		return sr.foldBatch(ts, bst, f, p)
	}
	return sr.foldRows(ts, bst, bst.sel, p)
}

// foldBatch is the vector fold: the program evaluates the aggregate's
// condition and term over the batch, then one sequential loop folds the
// rows it applies to — in selection order, accumulator in a register —
// so float sums are bit-identical to the row fold. Rows the program
// bailed on fold through the row closure at their own position in that
// order.
//
//tuplex:kernel
func (sr *stageRun) foldBatch(ts *task, bst *batchState, f *codegen.VecFold, p int) int64 {
	st := bst.vec
	applies := f.Select(st, bst.cols, 0, bst.n, bst.sel)
	bail := st.Bail()
	ts.vectorRows += int64(len(bst.sel))
	ts.vectorBail += int64(len(bail))
	if ts.route != nil {
		ts.route[sr.termRouteIdx] += int64(len(bst.sel) - len(bail)) // foldRows counts the replays
	}
	fold := func(rs []int32) {
		if f.Kind() == types.KindF64 {
			ts.aggSlot.F = f.FoldF64(st, ts.aggSlot.F, rs)
		} else {
			ts.aggSlot.I = f.FoldI64(st, ts.aggSlot.I, rs)
		}
	}
	var excs int64
	for bi, r := range bail {
		i := 0
		for i < len(applies) && applies[i] < r {
			i++
		}
		fold(applies[:i])
		applies = applies[i:]
		excs += sr.foldRows(ts, bst, bail[bi:bi+1], p)
	}
	fold(applies)
	return excs
}

// foldRows folds the given rows through the aggregate's row closure;
// failures pool the source row like every other batch step. After a
// fan-out join a failure also takes back what the source's earlier rows
// folded: the fallback folds all of them again.
//
//tuplex:kernel
func (sr *stageRun) foldRows(ts *task, bst *batchState, sel []int32, p int) int64 {
	bst.ensure(sel)
	su := sr.aggUDF
	var excs int64
	// src is the fan-out source whose rows are folding, acc0 the
	// accumulator before its first one.
	src, acc0 := int32(-1), ts.aggSlot
	fail := func(r int32, ec ECode) {
		if bst.srcIdx != nil {
			ts.aggSlot = acc0
		}
		excs += sr.failBatchRow(ts, bst, p, r, ec, sr.termRouteIdx)
	}
	for _, r := range sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		if bst.srcIdx != nil && bst.srcIdx[r] != src {
			src, acc0 = bst.srcIdx[r], ts.aggSlot
		}
		if ts.route != nil {
			ts.route[sr.termRouteIdx]++
		}
		if su == nil || su.compiled == nil {
			fail(r, pyvalue.ExcUnsupported)
			continue
		}
		var arg rows.Slot
		if sr.aggScalar {
			arg = bst.cols[0].Slot(int(r))
		} else {
			row := ts.rowBuf[:len(bst.cols)]
			for c, v := range bst.cols {
				row[c] = v.Slot(int(r))
			}
			arg = rows.Tuple(row)
		}
		v, ec := su.compiled.Call2(ts.frames[su.frameIdx], ts.aggSlot, arg)
		if ec != 0 {
			fail(r, ec)
			continue
		}
		ts.aggSlot = v
	}
	return excs
}

// collectBatch appends the live rows to a new set of output vectors, one
// column at a time, each sized for the batch (the collect sink's
// terminal; finish boxes them).
//
//tuplex:kernel
func (sr *stageRun) collectBatch(ts *task, bst *batchState) {
	if len(bst.sel) == 0 {
		return
	}
	seg := newVecs(sr.outSchema)
	for c, src := range bst.cols {
		seg[c].AppendSel(src, bst.sel)
	}
	ts.outVecs = append(ts.outVecs, seg)
	for _, r := range bst.sel {
		ts.outKeys = append(ts.outKeys, bst.keyOf(r))
	}
}

// gatherBatch materializes the live rows (materialize terminal) with one
// bulk backing allocation per batch.
func (sr *stageRun) gatherBatch(ts *task, bst *batchState) {
	b := colvec.Batch{Cols: bst.cols, N: bst.n}
	got := b.GatherRows(bst.sel)
	ts.outRows = append(ts.outRows, got...)
	for _, r := range bst.sel {
		ts.outKeys = append(ts.outKeys, bst.keyOf(r))
	}
}

// kernelArgCols resolves the column set a whole-row UDF reads at this
// schema point: accessed columns from the static analysis plus the
// columns its compiled guards test. nil means the analysis could not
// attribute reads (or a name failed to resolve) and the kernel must fill
// every column.
func kernelArgCols(su *stageUDF, schema *types.Schema) []int {
	acc := su.spec.Access
	if acc == nil || acc.WholeRow {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, nm := range acc.ByName {
		i, ok := schema.Lookup(nm)
		if !ok {
			return nil
		}
		add(i)
	}
	for _, i := range acc.ByIndex {
		if i < 0 || i >= schema.Len() {
			return nil
		}
		add(i)
	}
	if su.compiled != nil {
		for _, g := range su.compiled.Guards {
			if g.Col < 0 || g.Col >= schema.Len() {
				return nil
			}
			add(g.Col)
		}
	}
	return out
}
