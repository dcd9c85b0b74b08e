package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/interp"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// generalCompiles counts general-path compiles process-wide; tests read
// it to pin that a run without exception rows compiles none.
var generalCompiles atomic.Int64

// pathMode selects which exception path executes a boxed row.
type pathMode uint8

const (
	// pathGeneral is the compiled general-case path: the stage's general
	// plan (general.go), or closure-compiled boxed UDFs row by row.
	pathGeneral pathMode = iota
	// pathFallback is the tree-walking interpreter (always available).
	pathFallback
)

// errDropped signals that a row was legitimately removed (filter false,
// ignore() handler, inner-join miss).
var errDropped = errors.New("row dropped")

// boxedUDF is one UDF's boxed execution forms, with a private
// interpreter instance (the boxed paths run serially, mirroring the
// prototype's GIL acquisition for interpreter work). An instance
// belongs to one goroutine: the run's, or one resolve worker's.
type boxedUDF struct {
	spec *logical.UDFSpec
	ip   *interp.Interp
	// compiled is the general-path form, built on the first pathGeneral
	// call: most runs have no exception row, and never need it.
	compiled *interp.Compiled
	tried    bool // compiled was attempted (nil: not compilable)
	// dictParam selects dict-style (vs tuple-style) boxed rows for
	// whole-row UDFs, from the UDF's observed access pattern.
	dictParam bool
}

// newBoxedUDF prepares a UDF for the exception paths. The general-path
// closures are compiled when a row first reaches them.
func newBoxedUDF(spec *logical.UDFSpec) *boxedUDF {
	u := &boxedUDF{spec: spec, ip: interp.New(spec.Globals)}
	u.dictParam = len(spec.Access.ByName) > 0 || len(spec.Access.ByIndex) == 0
	return u
}

// call runs the UDF in the given mode. A UDF the general path cannot
// compile raises ExcUnsupported there and runs on the fallback
// interpreter.
func (u *boxedUDF) call(mode pathMode, args []pyvalue.Value) (pyvalue.Value, error) {
	if mode == pathGeneral {
		if !u.tried {
			u.tried = true
			u.compiled, _ = u.ip.Compile(u.spec.Fn)
			generalCompiles.Add(1)
		}
		if u.compiled == nil {
			return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "UDF not compilable on general path")
		}
		return u.compiled.Call(u.ip, args)
	}
	return u.ip.Call(u.spec.Fn, args)
}

// bOpKind enumerates boxed-path operator kinds.
type bOpKind uint8

const (
	bOpNoop bOpKind = iota
	bOpMap
	bOpFilter
	bOpWithColumn
	bOpMapColumn
	bOpSelect
	bOpJoin
)

// boxedOp is one stage operator in boxed form. The plan's recipe holds
// ops with spec set and udf nil; instantiateBoxed fills udf (and the
// handlers' resolver udfs) with private interpreters.
type boxedOp struct {
	kind      bOpKind
	spec      *logical.UDFSpec
	udf       *boxedUDF
	handlers  *opHandlers
	inSchema  *types.Schema
	outSchema *types.Schema
	col       string
	colIdx    int
	scalar    bool
	sel       []int
	joinIdx   int // index into the run's joins (bOpJoin)
	keyIdx    int
	leftOuter bool
	// accessCols caches the row positions of the UDF's accessed columns
	// (lazily resolved; -1 for columns missing from the schema).
	accessCols []int
	// stats counts rows entering this op on the exception paths (nil
	// below trace.LevelRows); within one run the pointer is shared
	// across the parallel resolve workers' copies, hence atomics.
	stats *boxedOpStats
}

// boxedOpStats is the routing ledger's exception-path side for one
// operator. Atomics are fine here: exception rows are rare by
// construction, so contention never touches the fast path.
type boxedOpStats struct {
	generalIn, fallbackIn atomic.Int64
}

// applyHandlers wraps a UDF invocation with the operator's ignore and
// resolve handlers (§3: resolvers run on the exception paths only; a
// compilable resolver runs on the general path, every resolver runs on
// the fallback path).
func applyHandlers(h *opHandlers, mode pathMode, call func() (pyvalue.Value, error), args []pyvalue.Value) (pyvalue.Value, error, bool) {
	v, err := call()
	if err == nil {
		return v, nil, false
	}
	kind := pyvalue.KindOf(err)
	if h != nil {
		for _, ig := range h.ignores {
			if ig == kind {
				return nil, errDropped, false
			}
		}
		for _, r := range h.resolvers {
			if r.exc != kind {
				continue
			}
			rv, rerr := r.udf.call(mode, args)
			if rerr == nil {
				return rv, nil, true
			}
			// The resolver itself failed: surface its error (a general
			// path failure will retry everything on the fallback path).
			return nil, rerr, false
		}
	}
	return nil, err, false
}

// instantiateBoxed copies a boxed op list with fresh interpreter
// instances, each compiling its general-path closures on first use:
// once per run from the plan's recipe, and once per resolve worker from
// the run's program so the general-case path can run in parallel across
// executors (§4.3's batched slow path; only the interpreter fallback
// serializes, modeling the GIL).
func instantiateBoxed(prog []*boxedOp) []*boxedOp {
	out := make([]*boxedOp, len(prog))
	for i, op := range prog {
		cp := *op
		if op.spec != nil {
			cp.udf = newBoxedUDF(op.spec)
		}
		if op.handlers != nil {
			h := &opHandlers{ignores: op.handlers.ignores}
			for _, r := range op.handlers.resolvers {
				h.resolvers = append(h.resolvers, resolverSpec{exc: r.exc, spec: r.spec, udf: newBoxedUDF(r.spec)})
			}
			cp.handlers = h
		}
		out[i] = &cp
	}
	return out
}

// runBoxedRow pushes one boxed row through the given boxed program and
// returns the output rows (possibly several after joins, or none after
// filters/inner-join misses). resolved reports whether a user resolver
// fired.
func (sr *stageRun) runBoxedRow(prog []*boxedOp, mode pathMode, vals []pyvalue.Value) (out [][]pyvalue.Value, resolved bool, err error) {
	cur := [][]pyvalue.Value{vals}
	for _, op := range prog {
		if len(cur) == 0 {
			return nil, resolved, errDropped
		}
		if op.stats != nil {
			if mode == pathGeneral {
				op.stats.generalIn.Add(int64(len(cur)))
			} else {
				op.stats.fallbackIn.Add(int64(len(cur)))
			}
		}
		var next [][]pyvalue.Value
		for _, row := range cur {
			produced, res, err := op.apply(sr.joins, mode, row)
			if err != nil {
				if errors.Is(err, errDropped) {
					continue
				}
				return nil, resolved, err
			}
			resolved = resolved || res
			next = append(next, produced...)
		}
		cur = next
	}
	if len(cur) == 0 {
		return nil, resolved, errDropped
	}
	return cur, resolved, nil
}

// udfArg builds the boxed argument for a whole-row or scalar UDF.
func (op *boxedOp) udfArg(row []pyvalue.Value) pyvalue.Value {
	if op.scalar {
		idx := op.colIdx
		if op.kind != bOpMapColumn {
			idx = 0
		}
		if idx >= len(row) {
			return pyvalue.None{}
		}
		return row[idx]
	}
	if op.udf != nil && op.udf.dictParam {
		names := op.inSchema.Names()
		d := pyvalue.NewDict()
		// Build only the columns the UDF reads (the access analysis is
		// sound: whole-row escapes force the full dict) — the general
		// path's analog of the planner's projection pushdown.
		access := op.udf.spec.Access
		if !access.WholeRow && len(access.ByName) > 0 {
			if op.accessCols == nil {
				op.accessCols = make([]int, len(access.ByName))
				for j, name := range access.ByName {
					op.accessCols[j] = -1
					for i, n := range names {
						if n == name {
							op.accessCols[j] = i
							break
						}
					}
				}
			}
			for j, idx := range op.accessCols {
				if idx >= 0 && idx < len(row) {
					d.Set(access.ByName[j], row[idx])
				}
			}
			return d
		}
		for i, v := range row {
			if i < len(names) {
				d.Set(names[i], v)
			}
		}
		return d
	}
	return &pyvalue.Tuple{Items: row}
}

// apply runs one boxed operator on one row.
func (op *boxedOp) apply(joins []*buildTable, mode pathMode, row []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
	switch op.kind {
	case bOpNoop:
		return [][]pyvalue.Value{row}, false, nil
	case bOpMap:
		arg := op.udfArg(row)
		v, err, res := applyHandlers(op.handlers, mode, func() (pyvalue.Value, error) {
			return op.udf.call(mode, []pyvalue.Value{arg})
		}, []pyvalue.Value{arg})
		if err != nil {
			return nil, res, err
		}
		out, err := mapResultRow(v, op.outSchema)
		if err != nil {
			return nil, res, err
		}
		return [][]pyvalue.Value{out}, res, nil
	case bOpFilter:
		arg := op.udfArg(row)
		v, err, res := applyHandlers(op.handlers, mode, func() (pyvalue.Value, error) {
			return op.udf.call(mode, []pyvalue.Value{arg})
		}, []pyvalue.Value{arg})
		if err != nil {
			return nil, res, err
		}
		if !pyvalue.Truth(v) {
			return nil, res, errDropped
		}
		return [][]pyvalue.Value{row}, res, nil
	case bOpWithColumn:
		arg := op.udfArg(row)
		v, err, res := applyHandlers(op.handlers, mode, func() (pyvalue.Value, error) {
			return op.udf.call(mode, []pyvalue.Value{arg})
		}, []pyvalue.Value{arg})
		if err != nil {
			return nil, res, err
		}
		out := append(append([]pyvalue.Value{}, row...), nil)
		if op.colIdx >= 0 && op.colIdx < len(row) {
			out = out[:len(row)]
			out[op.colIdx] = v
		} else {
			out[len(row)] = v
		}
		return [][]pyvalue.Value{out}, res, nil
	case bOpMapColumn:
		if op.colIdx >= len(row) {
			return nil, false, pyvalue.Raise(pyvalue.ExcIndexError, "row too short for column %q", op.col)
		}
		arg := row[op.colIdx]
		v, err, res := applyHandlers(op.handlers, mode, func() (pyvalue.Value, error) {
			return op.udf.call(mode, []pyvalue.Value{arg})
		}, []pyvalue.Value{arg})
		if err != nil {
			return nil, res, err
		}
		out := append([]pyvalue.Value{}, row...)
		out[op.colIdx] = v
		return [][]pyvalue.Value{out}, res, nil
	case bOpSelect:
		out := make([]pyvalue.Value, len(op.sel))
		for i, idx := range op.sel {
			if idx >= len(row) {
				return nil, false, pyvalue.Raise(pyvalue.ExcIndexError, "row too short for select")
			}
			out[i] = row[idx]
		}
		return [][]pyvalue.Value{out}, false, nil
	case bOpJoin:
		return op.applyJoin(joins[op.joinIdx], row)
	default:
		return nil, false, fmt.Errorf("core: unknown boxed op %d", op.kind)
	}
}

// applyJoin probes both the sharded normal table and the general build
// map (§4.5's pairwise NC/EC coverage for exception-side probe rows).
func (op *boxedOp) applyJoin(bt *buildTable, row []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
	if op.keyIdx >= len(row) {
		return nil, false, pyvalue.Raise(pyvalue.ExcKeyError, "row too short for join key")
	}
	var out [][]pyvalue.Value
	if key, ok := rows.AppendJoinKeyValue(nil, row[op.keyIdx]); ok {
		for _, ref := range bt.lookup(rows.Hash64(key), key) {
			joined := append(append([]pyvalue.Value{}, row...), bt.boxRow(ref)...)
			out = append(out, joined)
		}
		for _, m := range bt.general[string(key)] {
			joined := append(append([]pyvalue.Value{}, row...), m...)
			out = append(out, joined)
		}
	}
	if len(out) == 0 {
		if !op.leftOuter {
			return nil, false, errDropped
		}
		joined := append([]pyvalue.Value{}, row...)
		for range bt.addedCols {
			joined = append(joined, pyvalue.None{})
		}
		out = append(out, joined)
	}
	return out, false, nil
}

// mapResultRow converts a map UDF's boxed result into a positional row
// per the output schema.
func mapResultRow(v pyvalue.Value, outSchema *types.Schema) ([]pyvalue.Value, error) {
	switch v := v.(type) {
	case *pyvalue.Dict:
		out := make([]pyvalue.Value, outSchema.Len())
		for i, name := range outSchema.Names() {
			val, ok := v.Get(name)
			if !ok {
				return nil, pyvalue.Raise(pyvalue.ExcKeyError, "map result missing column %q", name)
			}
			out[i] = val
		}
		return out, nil
	case *pyvalue.Tuple:
		if v == nil || len(v.Items) != outSchema.Len() {
			return nil, pyvalue.Raise(pyvalue.ExcValueError, "map result arity mismatch")
		}
		return v.Items, nil
	default:
		if outSchema.Len() != 1 {
			return nil, pyvalue.Raise(pyvalue.ExcValueError, "map result arity mismatch")
		}
		return []pyvalue.Value{v}, nil
	}
}

// resolveExceptions drains the stage's exception pool through the
// general path, the fallback path and user resolvers (§4.3, Figure 2),
// updating the materialization in place. The general path is the stage's
// general plan, in batches, for the raw records it takes
// (resolveGeneral), and the boxed general path, row by row, for the rest;
// the fallback path and the terminal run serially — exception rows are
// rare by construction, and the fallback path models the prototype's
// GIL.
func (eng *engine) resolveExceptions(sr *stageRun, out *mat) (generalStats, error) {
	pool := out.exceptional
	out.exceptional = nil
	// Input-materialization exceptions from the previous stage also run
	// through this stage's boxed program. Source stages have no previous
	// stage.
	if sr.input != nil {
		n := len(pool)
		pool = append(pool, sr.input.exceptional...)
		// Carried-over rows raised in a previous stage; their op indexes
		// don't map to this stage's ledger, so they attribute to the
		// source entry.
		for i := n; i < len(pool); i++ {
			pool[i].op = 0
		}
	}
	sr.poolSize = len(pool)
	// rt is this stage's routing ledger (nil below LevelRows); outcome
	// increments below mirror the Metrics counter sites exactly so the
	// ledger totals reconcile with the run counters.
	rt := sr.routing
	addSample := func(ex *exRow, vals []pyvalue.Value, outcome string) {
		// ec == 0 marks a row carried over from a previous stage's
		// exception path, not a new exception — don't sample it.
		if !sr.traceSamples || ex.ec == 0 || len(sr.samples) >= trace.MaxExcSamples {
			return
		}
		in := renderInput(*ex, vals)
		if len(in) > trace.MaxSampleInput {
			in = in[:trace.MaxSampleInput]
		}
		sr.samples = append(sr.samples, trace.ExcSample{
			Op:      sr.opNames[ex.op],
			Exc:     ex.ec.String(),
			Input:   in,
			Outcome: outcome,
		})
	}
	// Unique terminal: merge task sets (shard-parallel) before
	// deduplicating exceptions against them.
	var uniqSeen *uniqIndex
	if sr.terminal == physical.TerminalUnique {
		uniqSeen = eng.mergeUnique(sr, out)
	}
	c := &eng.res.Metrics.Counters
	joinScale := uint64(1)
	for _, op := range sr.boxed {
		if op.kind == bOpJoin {
			joinScale *= 256
		}
	}
	var boxedAgg pyvalue.Value
	boxedAggRows := 0

	// Generalize raw rows once.
	genVals := func(ex *exRow) []pyvalue.Value {
		if ex.vals != nil {
			return ex.vals
		}
		if sr.isText {
			return []pyvalue.Value{pyvalue.Str(string(ex.raw))}
		}
		// Parse generally, then project to the stage's input columns so
		// positions line up with the (possibly pushdown-narrowed)
		// schema. Cells missing from short rows become None — the
		// interpreter view of dirty data.
		full := csvio.GeneralParse(ex.raw, sr.parse.Delim, sr.nullValues)
		vals := make([]pyvalue.Value, len(sr.parse.Fields))
		for i, f := range sr.parse.Fields {
			if f.Col < len(full) {
				vals[i] = full[f.Col]
			} else {
				vals[i] = pyvalue.None{}
			}
		}
		return vals
	}

	// runResolve wraps runBoxedRow with per-row resolve-latency
	// recording; with telemetry off it is the bare call.
	runResolve := sr.runBoxedRow
	if eng.mon != nil {
		runResolve = func(prog []*boxedOp, mode pathMode, vals []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
			t := time.Now()
			outRows, resolved, err := sr.runBoxedRow(prog, mode, vals)
			eng.mon.RecordResolve(time.Since(t))
			return outRows, resolved, err
		}
	}

	// Phase 1 — the general path: the general plan in batches, then the
	// rows it left on the boxed general path, fanned across executors when
	// they are many.
	outcomes := make([]exOutcome, len(pool))
	gs, perRow, err := eng.resolveGeneral(sr, pool, outcomes)
	if err != nil {
		return gs, err
	}
	workers := eng.opts.Executors
	// Cancellation is observed every 256 rows; the parallel fan-out
	// finishes its wg.Wait before bailing so no worker is abandoned
	// mid-chunk with half-written outcomes.
	var ctxStop atomic.Bool
	if workers > 1 && len(perRow) >= generalMinPool {
		var wg sync.WaitGroup
		chunk := (len(perRow) + workers - 1) / workers
		for lo := 0; lo < len(perRow); lo += chunk {
			wg.Add(1)
			go func(rs []int) {
				defer wg.Done()
				prog := instantiateBoxed(sr.boxed)
				for j, i := range rs {
					if j&0xff == 0 && (ctxStop.Load() || eng.canceled() != nil) {
						ctxStop.Store(true)
						return
					}
					vals := genVals(&pool[i])
					outRows, resolved, err := runResolve(prog, pathGeneral, vals)
					outcomes[i] = exOutcome{vals: vals, outRows: outRows, resolved: resolved, err: err, mode: pathGeneral}
				}
			}(perRow[lo:min(lo+chunk, len(perRow))])
		}
		wg.Wait()
		if ctxStop.Load() {
			if err := eng.canceled(); err != nil {
				return gs, err
			}
		}
	} else {
		for j, i := range perRow {
			if j&0xff == 0 {
				if err := eng.canceled(); err != nil {
					return gs, err
				}
			}
			vals := genVals(&pool[i])
			outRows, resolved, err := runResolve(sr.boxed, pathGeneral, vals)
			outcomes[i] = exOutcome{vals: vals, outRows: outRows, resolved: resolved, err: err, mode: pathGeneral}
		}
	}

	// Phase 2 — retries on the interpreter fallback run serially (the
	// GIL analog), then terminal application in input order.
	for i := range pool {
		if i&0xff == 0 {
			if err := eng.canceled(); err != nil {
				return gs, err
			}
		}
		ex := pool[i]
		oc := &outcomes[i]
		vals := oc.vals
		mode := oc.mode
		outRows, resolved, err := oc.outRows, oc.resolved, oc.err
		if err != nil && !errors.Is(err, errDropped) {
			mode = pathFallback
			outRows, resolved, err = runResolve(sr.boxed, mode, vals)
		}
		if errors.Is(err, errDropped) {
			c.IgnoredRows.Add(1)
			if rt != nil {
				rt[ex.op].Ignored++
			}
			addSample(&ex, vals, "ignored")
			continue
		}
		if err != nil {
			c.FailedRows.Add(1)
			if rt != nil {
				rt[ex.op].Failed++
			}
			addSample(&ex, vals, "failed")
			eng.res.Failed = append(eng.res.Failed, FailedRow{
				Exc:   pyvalue.KindOf(err),
				Msg:   err.Error(),
				Input: renderInput(ex, vals),
			})
			continue
		}
		switch {
		case resolved:
			c.ResolverResolved.Add(1)
			if rt != nil {
				rt[ex.op].ResolverResolved++
			}
			addSample(&ex, vals, "resolver")
		case mode == pathGeneral:
			c.GeneralResolved.Add(1)
			if rt != nil {
				rt[ex.op].GeneralResolved++
			}
			addSample(&ex, vals, "general")
		default:
			c.FallbackResolved.Add(1)
			if rt != nil {
				rt[ex.op].FallbackResolved++
			}
			addSample(&ex, vals, "fallback")
		}
		// Terminal application.
		switch sr.terminal {
		case physical.TerminalAggregate:
			for _, r := range outRows {
				acc := boxedAgg
				if boxedAggRows == 0 {
					acc = sr.aggInit
				}
				arg := aggRowArg(sr, r)
				v, aerr := sr.aggBoxed.call(pathFallback, []pyvalue.Value{acc, arg})
				if aerr != nil {
					c.FailedRows.Add(1)
					if rt != nil {
						rt[sr.termRouteIdx].Failed++
					}
					eng.res.Failed = append(eng.res.Failed, FailedRow{
						Exc: pyvalue.KindOf(aerr), Msg: aerr.Error(), Input: renderInput(ex, vals)})
					continue
				}
				boxedAgg = v
				boxedAggRows++
			}
		case physical.TerminalUnique:
			// mergeUnique left one partition, in order-key order.
			for _, r := range outRows {
				if uniqSeen.addRow(rows.RowFromValues(r)) {
					out.exceptional = append(out.exceptional, exRow{key: ex.key * joinScale, vals: r})
				}
			}
		default:
			for i, r := range outRows {
				sub := uint64(i)
				if sub > joinScale-1 {
					sub = joinScale - 1
				}
				out.exceptional = append(out.exceptional, exRow{part: ex.part, key: ex.key*joinScale + sub, vals: r})
			}
		}
	}

	// Finalize aggregates: combine task partials plus the boxed partial.
	if sr.terminal == physical.TerminalAggregate {
		v, err := eng.combinePartials(sr, boxedAgg, boxedAggRows)
		if err != nil {
			return gs, err
		}
		out.aggValue = v
		out.isAgg = true
		out.parts = [][]rows.Row{nil}
		out.keys = [][]uint64{nil}
	}
	return gs, nil
}

// aggRowArg builds the row argument for the boxed aggregate UDF.
func aggRowArg(sr *stageRun, r []pyvalue.Value) pyvalue.Value {
	if sr.outSchema.Len() == 1 && len(sr.aggUDF.spec.Access.ByName) == 0 {
		return r[0]
	}
	if sr.aggBoxed.dictParam {
		d := pyvalue.NewDict()
		for i, name := range sr.outSchema.Names() {
			if i < len(r) {
				d.Set(name, r[i])
			}
		}
		return d
	}
	return &pyvalue.Tuple{Items: r}
}

// combinePartials folds per-task accumulators (and the boxed exception
// partial) with the combiner UDF (§4.6 "merging of partial aggregates").
// With multiple executors and enough partials, the fold runs as a
// parallel binary tree: each round pairs adjacent partials and combines
// the pairs concurrently (each pair on a private interpreter clone), so
// streamed runs with hundreds of chunk partials reduce in O(log n)
// rounds instead of a serial chain. The tree keeps the left-to-right
// pairing, so for the associative combiners §4.6 requires the result
// matches the serial fold.
func (eng *engine) combinePartials(sr *stageRun, boxedAgg pyvalue.Value, boxedRows int) (pyvalue.Value, error) {
	var partials []pyvalue.Value
	for _, ts := range sr.tasks {
		if ts != nil && ts.hasAgg {
			partials = append(partials, ts.aggSlot.Value())
		}
	}
	if boxedRows > 0 {
		partials = append(partials, boxedAgg)
	}
	if len(partials) == 0 {
		return sr.aggInit, nil
	}
	if len(partials) > 1 && sr.combBoxed == nil {
		return nil, fmt.Errorf("core: aggregate over multiple partitions requires a combiner UDF")
	}
	if eng.opts.Executors > 1 && len(partials) >= 4 {
		for len(partials) > 1 {
			pairs := len(partials) / 2
			next := make([]pyvalue.Value, (len(partials)+1)/2)
			errs := make([]error, pairs)
			eng.parallelFor(pairs, func(i int) {
				v, err := newBoxedUDF(sr.combSpec).call(pathFallback, []pyvalue.Value{partials[2*i], partials[2*i+1]})
				if err != nil {
					errs[i] = fmt.Errorf("core: combiner failed: %w", err)
					return
				}
				next[i] = v
			})
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			if len(partials)%2 == 1 {
				next[pairs] = partials[len(partials)-1]
			}
			partials = next
		}
		return partials[0], nil
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		v, err := sr.combBoxed.call(pathFallback, []pyvalue.Value{acc, p})
		if err != nil {
			return nil, fmt.Errorf("core: combiner failed: %w", err)
		}
		acc = v
	}
	return acc, nil
}

func renderInput(ex exRow, vals []pyvalue.Value) string {
	if ex.raw != nil {
		return string(ex.raw)
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = pyvalue.Repr(v)
	}
	return "(" + joinStrings(parts, ", ") + ")"
}

func joinStrings(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
