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
// Exception rows go to the pooled boxed path exactly as on the
// row-at-a-time reference executor (Options.RowPlane) — output bytes and
// row accounting are identical by construction (enforced by the
// columnar differential suites).
//
// Join fan-out replicates the row path's depth-first abort semantics:
// the first failure downstream of a join pools the SOURCE row once
// (unscaled key — resolve replays the whole boxed program from source
// values) and invalidates the same source's not-yet-processed output
// rows, while already-emitted earlier matches stay.

import (
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

// bkKind enumerates batch kernel kinds.
type bkKind uint8

const (
	bkMap bkKind = iota
	bkFilter
	bkWithColumn
	bkMapColumn
	bkSelect
	bkJoin
)

// batchKernel is one operator compiled for batch execution.
type batchKernel struct {
	kind bkKind
	su   *stageUDF
	ridx int32
	// ki is the kernel's index in the stage plan (set by fuseKernels);
	// it addresses the kernel's derived vectors in batchState.
	ki int
	// scalar marks UDFs receiving a bare column value, argIdx the column
	// it is read from. colIdx is the mapColumn target, the withColumn
	// replace index (-1 = append) and the join probe-key column.
	scalar bool
	argIdx int
	colIdx int
	// vec is the UDF's vector program (codegen/vec.go) when this kernel
	// can run it: a filter over any vectorizable body, a
	// withColumn/mapColumn whose derived vector has the program's kind.
	// nil keeps the row closure, and rowWhy says why.
	vec    *codegen.VecExpr
	rowWhy string
	// inCols is the schema width entering the op; argCols lists the
	// columns a whole-row UDF actually reads (accessed columns plus guard
	// columns; nil = fill every column).
	inCols  int
	argCols []int
	// outTypes types the derived output vectors (map: one per output
	// column; withColumn/mapColumn: one; join: the full output schema).
	outTypes []types.Type
	// perm is the select permutation.
	perm []int
	// join state (bkJoin): the build table's index in the run's joins and
	// the left-outer flag.
	joinIdx   int
	leftOuter bool
}

// batchProg is a stage's batch plan.
type batchProg struct {
	kernels []*batchKernel
	// groups partitions the kernels into fused passes: runs of adjacent
	// map/filter/withColumn/mapColumn kernels execute in one scan over
	// the selection vector; select and join kernels form singleton
	// groups (they change the column layout / index space).
	groups [][]*batchKernel
}

// fuseKernels partitions the kernels into fused passes and stamps each
// kernel's plan index and vector program.
func fuseKernels(kernels []*batchKernel) [][]*batchKernel {
	var groups [][]*batchKernel
	var cur []*batchKernel
	for i, k := range kernels {
		k.ki = i
		k.vec, k.rowWhy = kernelVec(k)
		switch k.kind {
		case bkSelect, bkJoin:
			if len(cur) > 0 {
				groups = append(groups, cur)
				cur = nil
			}
			groups = append(groups, []*batchKernel{k})
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
func kernelVec(k *batchKernel) (*codegen.VecExpr, string) {
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
	case k.kind == bkFilter:
		return v, ""
	case k.kind == bkMap:
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
	if pl.batch == nil {
		return ""
	}
	var parts []string
	for _, k := range pl.batch.kernels {
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

	// dropped marks current-index rows invalidated by a same-source
	// failure earlier in the pass; pooledSrc marks source rows already
	// pooled (one pool entry per source row, like the row path's abort).
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
	bst.derived = make([][]*colvec.Vec, len(pl.batch.kernels))
	for ki, k := range pl.batch.kernels {
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
	return bst
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
// SOURCE order key — resolve replays the whole boxed program from source
// values and rescales per join.
func (bst *batchState) sourceEx(p int, sr int32, ec ECode, op int32) exRow {
	ex := exRow{part: p, key: bst.keys[sr], ec: ec, op: op}
	if bst.raws != nil {
		ex.raw = bst.raws[sr]
	} else {
		ex.vals = rows.RowToValues(bst.srcRows[sr])
	}
	return ex
}

// failBatchRow handles a normal-path failure at current-index row r:
// pool the source row once and invalidate the same source's later
// output rows (the row path aborts the whole source row depth-first at
// its first failure; earlier emitted matches stay). Returns 1 iff a new
// pool entry was made, mirroring the row path's one exception per
// source row.
func (sr *stageRun) failBatchRow(ts *task, bst *batchState, p int, r int32, ec ECode, op int32) int64 {
	src := bst.srcOf(r)
	if bst.srcIdx != nil {
		// Join fan-out keeps a source's output rows consecutive, so the
		// forward scan covers exactly the not-yet-processed siblings.
		for nr := int(r) + 1; nr < bst.n && bst.srcIdx[nr] == src; nr++ {
			bst.dropped.Set(nr)
			bst.anyDropped = true
		}
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

// runChunkColumnar is runRecords on the batch plan: each batch is one
// csvio.ParseChunk call straight into the source vectors, with the
// accepted records' spans in bst.raws and no record list for the chunk.
// Order keys, pool entries, counters and routing-ledger arithmetic are
// those of runRecords over csvio.SplitRecords(data), with the per-row
// parse/step/render work replaced by per-batch vector loops.
func (sr *stageRun) runChunkColumnar(ts *task, p int, data []byte, baseKey uint64) {
	bst := sr.getBatchState(ts)
	cb := &bst.chunk
	var input, rejects, normalExc int64
	for pos := 0; pos < len(data); {
		bst.beginBatch()
		bst.srcRows = nil
		pos = sr.parse.ParseChunk(data, pos, batchMaxRows, bst.src, cb)
		if cb.Records == 0 {
			break // the chunk ended in an empty record
		}
		bst.raws = cb.Raws
		key, rj := baseKey+uint64(input), cb.Rejects
		for r := range cb.Records {
			if len(rj) > 0 && rj[0].Rec == r {
				ts.pool = append(ts.pool, exRow{part: p, key: key, raw: rj[0].Raw, ec: rj[0].EC})
				if ts.route != nil {
					sr.countReject(ts, rj[0].Raw)
				}
				rj = rj[1:]
			} else {
				bst.keys = append(bst.keys, key)
			}
			key++
		}
		input += int64(cb.Records)
		rejects += int64(len(cb.Rejects))
		ts.parseSlow += int64(cb.Slow)
		normalExc += sr.runBatchBody(ts, bst, p)
	}
	ts.finishRows(input, rejects, normalExc)
	sr.putBatchState(ts)
}

// runTextColumnar is runChunkColumnar for a text source: each line of the
// chunk is one row of the single string column, and its span goes in
// bst.raws as a CSV record's does (a text stage's batch memory holds no
// chunk parse, so bst.raws is its own list). Order keys and pool entries
// are those of runRecords over splitPlainLines(data); a line never
// rejects.
func (sr *stageRun) runTextColumnar(ts *task, p int, data []byte, baseKey uint64) {
	bst := sr.getBatchState(ts)
	col := bst.src[0]
	var input, normalExc int64
	for pos := 0; pos < len(data); {
		bst.beginBatch()
		bst.raws, bst.srcRows = bst.raws[:0], nil
		for n := 0; n < batchMaxRows && pos < len(data); n++ {
			var line []byte
			line, pos = nextLine(data, pos)
			col.AppendStrBytes(line)
			bst.raws = append(bst.raws, line)
			bst.keys = append(bst.keys, baseKey+uint64(input))
			input++
		}
		normalExc += sr.runBatchBody(ts, bst, p)
	}
	ts.finishRows(input, 0, normalExc)
	sr.putBatchState(ts)
}

// runRowsColumnar is the batch plan over an in-memory partition: a
// Parallelize range (order keys are row indexes), whose non-conforming
// rows pool boxed as classifier rejects, or an interior stage's share of
// the previous stage's output (order keys travel with the rows), whose
// rows all enter the normal case as the row path takes them. A row
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
		normalExc += sr.runBatchBody(ts, bst, p)
	}
	ts.finishRows(input, rejects, normalExc)
	sr.putBatchState(ts)
}

// runBatchBody executes the kernel groups and the terminal over one
// ingested batch. Returns the normal-path exception count (one per
// failed source row).
func (sr *stageRun) runBatchBody(ts *task, bst *batchState, p int) int64 {
	normalExc := sr.runKernels(ts, bst, p)
	ts.columnarRows += int64(len(bst.sel))

	if sr.terminal == physical.TerminalAggregate {
		return normalExc + sr.aggregateBatch(ts, bst, p)
	}
	if ts.route != nil {
		ts.route[sr.termRouteIdx] += int64(len(bst.sel))
	}
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
	return normalExc
}

// runKernels selects every ingested row of the batch and runs the kernel
// groups over it, leaving the survivors in bst.sel and their columns in
// bst.cols. Returns the normal-path exception count.
func (sr *stageRun) runKernels(ts *task, bst *batchState, p int) int64 {
	n := len(bst.keys)
	bst.n = n
	bst.sel = bst.sel[:0]
	for i := 0; i < n; i++ {
		bst.sel = append(bst.sel, int32(i))
	}
	bst.cols = append(bst.cols[:0], bst.src...)

	var normalExc int64
	for _, g := range sr.batch.groups {
		switch g[0].kind {
		case bkJoin:
			normalExc += sr.runJoinKernel(ts, bst, g[0], p)
		case bkSelect:
			k := g[0]
			if ts.route != nil {
				ts.route[k.ridx] += int64(len(bst.sel))
			}
			out := bst.cols2[:0]
			for _, i := range k.perm {
				out = append(out, bst.cols[i])
			}
			bst.cols, bst.cols2 = out, bst.cols
		default:
			normalExc += sr.runGroup(ts, bst, g, p)
		}
	}
	return normalExc
}

// layoutAfter simulates kernel k's column-layout transformation over an
// input view (layout is row-independent, so each fused pass computes
// every kernel's input view once per batch).
func layoutAfter(bst *batchState, k *batchKernel, in []*colvec.Vec) []*colvec.Vec {
	d := bst.derived[k.ki]
	switch k.kind {
	case bkFilter:
		return in
	case bkMap:
		return d
	case bkMapColumn:
		out := bst.carve(len(in))
		copy(out, in)
		out[k.colIdx] = d[0]
		return out
	case bkWithColumn:
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
func (sr *stageRun) argAccessor(ts *task, bst *batchState, k *batchKernel, view []*colvec.Vec, n int) func(int32) rows.Slot {
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
// live rows, and not after a fan-out join has remapped the batch: there
// one failing output row invalidates its not-yet-processed siblings, an
// order only the row-major scan defines. A unique-key join keeps the
// index space, and the vector path with it.
func (sr *stageRun) runGroup(ts *task, bst *batchState, group []*batchKernel, p int) int64 {
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
	pool0, passes := len(ts.pool), 0
	var excs int64
	for lo := 0; lo < len(group); passes++ {
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
	if pooled := ts.pool[pool0:]; passes > 1 && len(pooled) > 1 {
		// One scan pools a group's failures in row order; several passes
		// pool them pass by pass. Keys ascend with the rows, so sorting
		// restores the single scan's pool order.
		slices.SortFunc(pooled, func(a, b exRow) int { return cmp.Compare(a.key, b.key) })
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
func (sr *stageRun) runRowKernels(ts *task, bst *batchState, group []*batchKernel, lo, hi, p int) int64 {
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
			case bkFilter:
				if !v.Truth() {
					continue rowLoop
				}
			case bkMap:
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
			case bkWithColumn, bkMapColumn:
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
func (sr *stageRun) runVecKernel(ts *task, bst *batchState, k *batchKernel, gi, p int) int64 {
	sel, st := bst.sel, bst.vec
	if ts.route != nil {
		ts.route[k.ridx] += int64(len(sel))
	}
	ts.vectorRows += int64(len(sel))
	filter := k.kind == bkFilter
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
// carries the key*256+sub order keys the row path produces).
//
//tuplex:kernel
func (sr *stageRun) runJoinKernel(ts *task, bst *batchState, k *batchKernel, p int) int64 {
	bt := sr.joins[k.joinIdx]
	keyVec := bst.cols[k.colIdx]
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
	bst.refs = refs
	nIn, derived := k.inCols, bst.derived[k.ki]
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
func gatherArgView(k *batchKernel, view []*colvec.Vec, bst *batchState, r int) rows.Slot {
	row := bst.argBuf[:k.inCols]
	if k.argCols == nil {
		for c, v := range view[:k.inCols] {
			row[c] = v.Slot(r)
		}
	} else {
		for _, c := range k.argCols {
			row[c] = view[c].Slot(r)
		}
	}
	return rows.Tuple(row)
}

// callKernelUDF is callNormalUDF with the argument already gathered.
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

// uniqueBatch feeds the live rows into the task's open distinct set (the
// columnar unique terminal — same encoded row keys and insertion order
// as the row path's terminal step).
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
// failures pool the source row like every other batch step.
//
//tuplex:kernel
func (sr *stageRun) foldRows(ts *task, bst *batchState, sel []int32, p int) int64 {
	su := sr.aggUDF
	var excs int64
	for _, r := range sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		if ts.route != nil {
			ts.route[sr.termRouteIdx]++
		}
		if su == nil || su.compiled == nil {
			excs += sr.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, sr.termRouteIdx)
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
			excs += sr.failBatchRow(ts, bst, p, r, ec, sr.termRouteIdx)
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
