package core

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// makeTerminal builds the stage's final step.
func (pl *stagePlan) makeTerminal() (nstep, error) {
	switch pl.terminal {
	case physical.TerminalSink, physical.TerminalMaterialize:
		switch pl.emit {
		case emitCSV:
			// Render rows straight into the per-task writer — no copy,
			// no boxing. Byte offsets let the engine splice resolved
			// exception rows back into position.
			return func(ts *task, key uint64, row rows.Row) ECode {
				ts.csvW.WriteRow(row)
				ts.lineEnds = append(ts.lineEnds, ts.csvW.Len())
				ts.outKeys = append(ts.outKeys, key)
				return 0
			}, nil
		case emitVecs:
			// Append the cells to the task's output vectors, batchMaxRows
			// rows to a set; finish boxes them.
			schema := pl.outSchema
			return func(ts *task, key uint64, row rows.Row) ECode {
				if len(ts.outKeys)%batchMaxRows == 0 {
					ts.outVecs = append(ts.outVecs, newVecs(schema))
				}
				for c, v := range ts.outVecs[len(ts.outVecs)-1] {
					v.AppendCell(row[c])
				}
				ts.outKeys = append(ts.outKeys, key)
				return 0
			}, nil
		}
		// Materialize rows with order keys for the next consumer. Rows
		// copy into the task's slot slab — one amortized backing array
		// per task instead of one heap allocation per output row. Slices
		// are capped so later slab growth can never write through an
		// earlier row's view.
		return func(ts *task, key uint64, row rows.Row) ECode {
			start := len(ts.outSlab)
			ts.outSlab = append(ts.outSlab, row...)
			ts.outRows = append(ts.outRows, ts.outSlab[start:len(ts.outSlab):len(ts.outSlab)])
			ts.outKeys = append(ts.outKeys, key)
			return 0
		}, nil
	case physical.TerminalUnique:
		// Per-task open set over encoded row keys: duplicate rows (the
		// common case) cost one hash lookup and no allocation; the sets
		// merge shard-parallel at finish (mergeUnique).
		return func(ts *task, key uint64, row rows.Row) ECode {
			buf := rows.AppendRowKey(ts.keyBuf[:0], row)
			ts.keyBuf = buf
			ts.uniq.insert(rows.Hash64(buf), buf, row, key)
			return 0
		}, nil
	case physical.TerminalAggregate:
		su := pl.aggUDF
		scalar := pl.aggScalar
		ridx := pl.termRouteIdx
		return func(ts *task, key uint64, row rows.Row) ECode {
			if su == nil || su.compiled == nil {
				ts.excOp = ridx
				return pyvalue.ExcUnsupported
			}
			fr := ts.frames[su.frameIdx]
			arg := rows.Tuple(row)
			if scalar {
				arg = row[0]
			}
			v, ec := su.compiled.Call2(fr, ts.aggSlot, arg)
			if ec != 0 {
				ts.excOp = ridx
				return ec
			}
			ts.aggSlot = v
			return 0
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown terminal %d", pl.terminal)
	}
}

// compileAggregate compiles the aggregate UDF against the accumulator
// and row types, widening the accumulator type to a fixpoint (int
// accumulators often become floats after the first few rows, which the
// normal path must anticipate).
func (eng *engine) compileAggregate(pl *stagePlan, agg *logical.AggregateOp, schema *types.Schema) {
	pl.aggInit = agg.Initial
	pl.combSpec = agg.Comb
	su := &stageUDF{spec: agg.Agg}
	accT := typeOfBoxed(agg.Initial)
	rowT := types.Row(schema)
	if schema.Len() == 1 && len(agg.Agg.Access.ByName) == 0 {
		rowT = schema.Col(0).Type
		pl.aggScalar = true
	}
	globalTypes := map[string]types.Type{}
	for k, v := range agg.Agg.Globals {
		globalTypes[k] = typeOfBoxed(v)
	}
	for range 3 {
		info, err := inference.TypeFunction(agg.Agg.Fn, []types.Type{accT, rowT}, globalTypes, inference.Options{})
		if err != nil {
			break // wrong arity etc: boxed-only aggregation
		}
		if !info.Compilable() {
			break
		}
		ret := info.ReturnType
		if types.Equal(ret, accT) {
			u, cerr := codegen.Compile(info, agg.Agg.Globals, eng.opts.Codegen)
			if cerr == nil {
				su.compiled = u
				pl.aggFold = u.Fold
			}
			break
		}
		widened := types.Unify(ret, accT)
		if types.Equal(widened, accT) || widened.Kind() == types.KindAny {
			break
		}
		accT = widened
	}
	su.frameIdx = pl.nUDFs - 1 // the frame slot reserved for the terminal
	pl.aggUDF = su
	pl.aggSlotType = accT
}

// newCSVWriterFor returns a writer with the schema's header already
// written.
func newCSVWriterFor(schema *types.Schema) *csvio.Writer {
	w := csvio.NewWriter(',')
	if schema != nil {
		w.WriteHeader(schema.Names())
	}
	return w
}

// coerceSlot converts a slot to the widened accumulator type so the
// compiled aggregate's monomorphic code reads the right union member.
func coerceSlot(s rows.Slot, t types.Type) rows.Slot {
	switch t.Unwrap().Kind() {
	case types.KindF64:
		switch s.Tag {
		case types.KindI64:
			return rows.F64(float64(s.I))
		case types.KindBool:
			if s.B {
				return rows.F64(1)
			}
			return rows.F64(0)
		}
	case types.KindI64:
		if s.Tag == types.KindBool {
			if s.B {
				return rows.I64(1)
			}
			return rows.I64(0)
		}
	}
	return s
}
