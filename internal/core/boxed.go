package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// errDropped signals that a row was legitimately removed (filter false,
// ignore() handler, inner-join miss).
var errDropped = errors.New("row dropped")

// boxedUDF is one UDF on the fallback path, with a private tree-walking
// interpreter (the fallback runs serially, mirroring the prototype's GIL
// acquisition for interpreter work). An instance belongs to one
// goroutine.
type boxedUDF struct {
	spec *logical.UDFSpec
	ip   *interp.Interp
	// dictParam selects dict-style (vs tuple-style) boxed rows for
	// whole-row UDFs, from the UDF's observed access pattern.
	dictParam bool
}

// newBoxedUDF prepares a UDF for the fallback path.
func newBoxedUDF(spec *logical.UDFSpec) *boxedUDF {
	u := &boxedUDF{spec: spec, ip: interp.New(spec.Globals)}
	u.dictParam = len(spec.Access.ByName) > 0 || len(spec.Access.ByIndex) == 0
	return u
}

// call runs the UDF on the tree-walking interpreter.
func (u *boxedUDF) call(args []pyvalue.Value) (pyvalue.Value, error) {
	return u.ip.Call(u.spec.Fn, args)
}

// newInterps builds a run's fallback interpreters for the plan's ops:
// per op, its UDF's and then each resolver's (none for select and join).
func newInterps(ops []*stageOp) [][]*boxedUDF {
	ips := make([][]*boxedUDF, len(ops))
	for i, op := range ops {
		if op.su == nil {
			continue
		}
		ips[i] = []*boxedUDF{newBoxedUDF(op.su.spec)}
		for _, r := range op.handlers.resolvers {
			ips[i] = append(ips[i], newBoxedUDF(r.spec))
		}
	}
	return ips
}

// boxedAccessCols resolves the row positions of the columns a whole-row
// UDF reads by name at this schema point (-1 for a name the schema
// lacks), so that its fallback dict holds only those — the general
// path's analog of the planner's projection pushdown. The access
// analysis is sound: a whole-row escape, or a UDF that reads no column by
// name, gets nil, and its argument holds the whole row.
func boxedAccessCols(spec *logical.UDFSpec, schema *types.Schema) []int {
	access := spec.Access
	if access == nil || access.WholeRow || len(access.ByName) == 0 {
		return nil
	}
	names := schema.Names()
	cols := make([]int, len(access.ByName))
	for j, name := range access.ByName {
		cols[j] = slices.Index(names, name)
	}
	return cols
}

// runBoxedRow pushes one boxed row through the stage's ops on the
// fallback and returns the output rows (possibly several after joins, or
// none after filters/inner-join misses). resolved reports whether a user
// resolver fired. The ledger counts the rows entering every operator,
// rename, resolve and ignore included.
func (sr *stageRun) runBoxedRow(vals []pyvalue.Value) (out [][]pyvalue.Value, resolved bool, err error) {
	cur := [][]pyvalue.Value{vals}
	ri := int32(1) // the next ledger entry to count
	count := func(through int32) {
		for ; sr.routing != nil && ri <= through; ri++ {
			sr.routing[ri].FallbackIn += int64(len(cur))
		}
	}
	for i, op := range sr.ops {
		if len(cur) == 0 {
			return nil, resolved, errDropped
		}
		count(op.ridx)
		var next [][]pyvalue.Value
		for _, row := range cur {
			produced, res, err := op.apply(sr.interps[i], sr.joins, row)
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
	count(sr.termRouteIdx - 1)
	return cur, resolved, nil
}

// udfArg builds the boxed argument of the operator's UDF or one of its
// resolvers from the operator's input row: u is that UDF's interpreter,
// accessCols the columns it reads (stageOp.accessCols,
// resolverSpec.accessCols).
func (op *stageOp) udfArg(u *boxedUDF, accessCols []int, row []pyvalue.Value) pyvalue.Value {
	switch {
	case op.scalar:
		if op.argIdx >= len(row) {
			return pyvalue.None{}
		}
		return row[op.argIdx]
	case accessCols != nil:
		d := pyvalue.NewDict()
		for j, idx := range accessCols {
			if idx >= 0 && idx < len(row) {
				d.Set(u.spec.Access.ByName[j], row[idx])
			}
		}
		return d
	case u.dictParam:
		names := op.inSchema.Names()
		d := pyvalue.NewDict()
		for i, v := range row {
			if i < len(names) {
				d.Set(names[i], v)
			}
		}
		return d
	}
	return &pyvalue.Tuple{Items: row}
}

// call runs the operator's UDF (ips[0]) on its input row, with its
// ignore and resolve handlers (§3: resolvers run on the exception paths
// only — here on the fallback path); ips[1+j] runs resolver j, on its
// own argument from the same row. resolved reports that a resolver
// produced v.
func (op *stageOp) call(ips []*boxedUDF, row []pyvalue.Value) (v pyvalue.Value, resolved bool, err error) {
	v, err = ips[0].call([]pyvalue.Value{op.udfArg(ips[0], op.accessCols, row)})
	if err == nil {
		return v, false, nil
	}
	kind := pyvalue.KindOf(err)
	if slices.Contains(op.handlers.ignores, kind) {
		return nil, false, errDropped
	}
	for j, r := range op.handlers.resolvers {
		if r.exc != kind {
			continue
		}
		rv, rerr := ips[1+j].call([]pyvalue.Value{op.udfArg(ips[1+j], r.accessCols, row)})
		if rerr != nil {
			// The resolver itself failed: surface its error.
			return nil, false, rerr
		}
		return rv, true, nil
	}
	return nil, false, err
}

// apply runs the operator on one boxed row with the run's interpreters
// for it (ips) and build tables (joins).
func (op *stageOp) apply(ips []*boxedUDF, joins []*buildTable, row []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
	switch op.kind {
	case opSelect:
		out := make([]pyvalue.Value, len(op.sel))
		for i, idx := range op.sel {
			if idx >= len(row) {
				return nil, false, pyvalue.Raise(pyvalue.ExcIndexError, "row too short for select")
			}
			out[i] = row[idx]
		}
		return [][]pyvalue.Value{out}, false, nil
	case opJoin:
		return op.applyJoin(joins[op.joinIdx], row)
	case opMapColumn:
		if op.colIdx >= len(row) {
			return nil, false, pyvalue.Raise(pyvalue.ExcIndexError, "row too short for column %q", op.inSchema.Col(op.colIdx).Name)
		}
	}
	v, res, err := op.call(ips, row)
	if err != nil {
		return nil, res, err
	}
	var out []pyvalue.Value
	switch op.kind {
	case opMap:
		if out, err = mapResultRow(v, op.outSchema); err != nil {
			return nil, res, err
		}
	case opFilter:
		if !pyvalue.Truth(v) {
			return nil, res, errDropped
		}
		out = row
	case opWithColumn:
		out = append(append([]pyvalue.Value{}, row...), nil)
		if op.colIdx >= 0 && op.colIdx < len(row) {
			out = out[:len(row)]
			out[op.colIdx] = v
		} else {
			out[len(row)] = v
		}
	case opMapColumn:
		out = append([]pyvalue.Value{}, row...)
		out[op.colIdx] = v
	}
	return [][]pyvalue.Value{out}, res, nil
}

// applyJoin probes both the sharded normal table and the general build
// map (§4.5's pairwise NC/EC coverage for exception-side probe rows).
func (op *stageOp) applyJoin(bt *buildTable, row []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
	if op.colIdx >= len(row) {
		return nil, false, pyvalue.Raise(pyvalue.ExcKeyError, "row too short for join key")
	}
	var out [][]pyvalue.Value
	if key, ok := rows.AppendJoinKeyValue(nil, row[op.colIdx]); ok {
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
// (resolveGeneral); every other pool row runs on the fallback path, where
// the resolvers run too. The fallback path and the terminal run serially
// — exception rows are rare by construction, and the fallback path
// models the prototype's GIL.
func (eng *engine) resolveExceptions(sr *stageRun, out *mat) (generalStats, error) {
	pool := out.exceptional
	out.exceptional = nil
	// Input-materialization exceptions from the previous stage also run
	// through this stage's ops. Source stages have no previous stage.
	if sr.input != nil {
		n := len(pool)
		pool = append(pool, sr.input.exceptional...)
		// Carried-over rows raised in a previous stage; their op indexes
		// don't map to this stage's ledger, so they attribute to the
		// source entry.
		for i := n; i < len(pool); i++ {
			pool[i].op = 0
		}
		// Both parts run over the same partitions; the pool lists its
		// rows in input order.
		slices.SortStableFunc(pool, func(a, b exRow) int {
			return cmp.Or(cmp.Compare(a.part, b.part), cmp.Compare(a.key, b.key))
		})
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
	for _, op := range sr.ops {
		if op.kind == opJoin {
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
		// Parse generally the stage's input columns, so positions line
		// up with the (possibly pushdown-narrowed) schema. Cells missing
		// from short rows become None — the interpreter view of dirty
		// data.
		return csvio.GeneralFields(ex.raw, sr.parse.Delim, sr.parse.Fields, sr.nullValues)
	}

	// runResolve wraps runBoxedRow with per-row resolve-latency
	// recording; with telemetry off it is the bare call.
	runResolve := sr.runBoxedRow
	if eng.mon != nil {
		runResolve = func(vals []pyvalue.Value) ([][]pyvalue.Value, bool, error) {
			t := time.Now()
			outRows, resolved, err := sr.runBoxedRow(vals)
			eng.mon.RecordResolve(time.Since(t))
			return outRows, resolved, err
		}
	}

	// Phase 1 — the general path: the general plan, in batches.
	outcomes := make([]exOutcome, len(pool))
	gs, err := eng.resolveGeneral(sr, pool, outcomes)
	if err != nil {
		return gs, err
	}

	// Phase 2 — every row the general plan did not take runs on the
	// interpreter fallback, serially (the GIL analog); then terminal
	// application in input order.
	if gs.batched < len(pool) {
		sr.interps = newInterps(sr.ops)
	}
	for i := range pool {
		if i&0xff == 0 {
			if err := eng.canceled(); err != nil {
				return gs, err
			}
		}
		ex := pool[i]
		oc := &outcomes[i]
		var (
			vals     []pyvalue.Value
			outRows  = oc.outRows
			resolved bool
			err      error
		)
		switch {
		case !oc.general:
			vals = genVals(&ex)
			outRows, resolved, err = runResolve(vals)
		case len(outRows) == 0:
			err = errDropped
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
		case oc.general:
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
				v, aerr := sr.aggBoxed.call([]pyvalue.Value{acc, arg})
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
			for _, r := range outRows {
				if uniqSeen.addRow(rows.RowFromValues(r)) {
					out.exceptional = append(out.exceptional, exRow{part: ex.part, key: ex.key * joinScale, vals: r})
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
				v, err := newBoxedUDF(sr.combSpec).call([]pyvalue.Value{partials[2*i], partials[2*i+1]})
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
		v, err := sr.combBoxed.call([]pyvalue.Value{acc, p})
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
	return "(" + strings.Join(parts, ", ") + ")"
}
