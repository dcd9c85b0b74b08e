package core

// The general case as a compiled batch plan (PAPER.md §1, steps 2–3). A
// CSV stage's exception pool is mostly records the normal case turned
// away — a null the sample did not see, a value in a column it saw only
// nulls in, a guard miss — that the same operators handle fine once
// their types admit them. So resolve first runs the pool's raw records
// through a second plan of the stage, compiled by the same compileOps at
// the general schema with no sampled guards, on the batch plane the
// normal case uses. That plan is the general case. The records it cannot
// take — the general parse rejects them, or they raise — and the pool
// rows that are not raw records go row by row to the tree-walking
// fallback (resolveExceptions).

import (
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// generalMinPool is the pool size from which resolve runs the raw
// records through the stage's general plan: below it, building and
// running the plan costs more than the rows save on the fallback.
const generalMinPool = 64

// generalPlans counts general plans built process-wide; tests read it to
// pin that the plan is built once, and only for pools that warrant it.
var generalPlans atomic.Int64

// exOutcome is a pool row's phase-1 result (resolveExceptions): whether
// the general plan took the row, and if so its output rows (none: the
// row was dropped).
type exOutcome struct {
	outRows [][]pyvalue.Value
	general bool
}

// generalStats is what a resolve reports on its span: the pool rows the
// general plan resolved, and the time this run spent building the plan.
type generalStats struct {
	batched int
	compile time.Duration
}

// generalPlan returns the stage's general plan, building it on first use
// for every run of the plan; d is the build time when this call built it.
func (eng *engine) generalPlan(sr *stageRun) (gp *stagePlan, d time.Duration) {
	sr.generalOnce.Do(func() {
		t0 := time.Now()
		sr.general = eng.compileGeneral(sr.slot, sr.stagePlan)
		d = time.Since(t0)
	})
	return sr.general, d
}

// compileGeneral builds a CSV stage's general plan, on either normal-case
// plane: the stage's operators — not its terminal — compiled again by
// compileOps at the general schema (pl.generalIn), each UDF from a fresh
// parse of its source, with type-only dataflow facts and null pruning
// off, so no code rests on a sampled guard and no arm is pruned by the
// sample. Its parser is the general spec (csvio.NewGeneralParseSpec), so
// every value it runs on is the one the fallback would box. It adds
// nothing to Result.Warnings. nil means the stage has none: not a CSV
// stage, an operator that does not compile, or a UDF without a compiled
// form at these types (every row would raise).
func (eng *engine) compileGeneral(sl *stageSlot, pl *stagePlan) *stagePlan {
	if pl.parse == nil || pl.generalIn == nil || sl == nil {
		return nil
	}
	fields := make([]csvio.FieldSpec, len(pl.parse.Fields))
	for i, f := range pl.parse.Fields {
		fields[i] = csvio.FieldSpec{Col: f.Col, Type: pl.generalIn.Col(i).Type}
	}
	gp := &stagePlan{
		terminal:    physical.TerminalMaterialize,
		emit:        emitRows,
		parse:       csvio.NewGeneralParseSpec(pl.parse.Delim, pl.parse.NumCols, fields, pl.parse.NullValues),
		nFields:     len(fields),
		inSchema:    pl.generalIn,
		nullValues:  pl.nullValues,
		generalCase: true,
		noVec:       pl.noVec,
	}
	if err := eng.compileOps(gp, sl, nil); err != nil {
		return nil
	}
	for _, k := range gp.ops {
		if k.su != nil && k.su.compiled == nil {
			return nil
		}
	}
	generalPlans.Add(1)
	return gp
}

// resolveGeneral is resolve's phase 1 on the general plan. A CSV stage
// whose pool holds at least generalMinPool raw records runs them through
// the plan in equal batches of at most batchMaxRows across the executors,
// with the run's build tables; each record the plan takes gets its
// outcome. The rows it leaves for the fallback are records the general
// parse rejects or the plan fails on, entries with boxed values, and the
// whole pool when the plan is not used. The pass counts nothing into the
// normal-path counters; the ledger gets each taken row's per-op entries
// once.
func (eng *engine) resolveGeneral(sr *stageRun, pool []exRow, outcomes []exOutcome) (gs generalStats, err error) {
	var raw []int
	if sr.parse != nil {
		for i := range pool {
			if pool[i].vals == nil {
				raw = append(raw, i)
			}
		}
	}
	cut := eng.generalCut
	if cut == 0 {
		cut = generalMinPool
	}
	var gp *stagePlan
	if len(raw) >= cut {
		gp, gs.compile = eng.generalPlan(sr)
	}
	if gp != nil {
		g := &stageRun{stagePlan: gp, joins: sr.joins}
		// Equal batches, at least one per executor while each keeps
		// generalMinPool rows.
		nb := max((len(raw)+batchMaxRows-1)/batchMaxRows, min(eng.opts.Executors, len(raw)/generalMinPool))
		size := (len(raw) + nb - 1) / nb
		routes := make([][]int64, nb)
		produced := make([]int64, nb)
		eng.parallelFor(nb, func(b int) {
			if eng.canceled() != nil {
				return
			}
			ts := g.newTask(eng, b)
			idx := raw[min(b*size, len(raw)):min((b+1)*size, len(raw))]
			produced[b] = g.runGeneralBatch(ts, pool, idx, outcomes)
			routes[b] = ts.route
		})
		if err := eng.canceled(); err != nil {
			return gs, err
		}
		if sr.traceRows {
			sr.countGeneral(gp, routes, produced)
		}
	}
	for i := range outcomes {
		if outcomes[i].general {
			gs.batched++
		}
	}
	return gs, nil
}

// runGeneralBatch runs pool entries idx through the general plan as one
// batch: it parses their records at the general spec, runs the kernel
// groups, and gives each entry that the parse accepted and the plan did
// not fail on its outcome — its output rows boxed in order — and marks it
// taken. It returns the rows boxed. When the ledger is on, ts.route
// counts the taken entries' rows: a failed entry goes to the fallback,
// which counts it, so the batch runs again without it.
func (g *stageRun) runGeneralBatch(ts *task, pool []exRow, idx []int, outcomes []exOutcome) (produced int64) {
	bst := g.getBatchState(ts)
	defer g.putBatchState(ts)
	for {
		bst.beginBatch()
		bst.srcRows, bst.raws = nil, bst.raws[:0]
		for _, i := range idx {
			if g.parse.ParseLineVecs(pool[i].raw, bst.src) == 0 {
				bst.keys = append(bst.keys, uint64(i))
				bst.raws = append(bst.raws, pool[i].raw)
			}
		}
		ts.pool = ts.pool[:0]
		clear(ts.route)
		g.runKernels(ts, bst, 0)
		if len(ts.pool) == 0 || ts.route == nil {
			break
		}
		idx = make([]int, 0, len(bst.keys))
		for s, i := range bst.keys {
			if !bst.pooledSrc.Get(s) {
				idx = append(idx, int(i))
			}
		}
	}
	// No row of a failed source is left in the selection.
	nc := len(bst.cols)
	slab := make([]pyvalue.Value, len(bst.sel)*nc)
	for _, r := range bst.sel {
		row := slab[:nc:nc]
		slab = slab[nc:]
		for c, v := range bst.cols {
			row[c] = boxCell(v, int(r))
		}
		oc := &outcomes[bst.keys[bst.srcOf(r)]]
		oc.outRows = append(oc.outRows, row)
		produced++
	}
	for s, i := range bst.keys {
		if !bst.anyPooled || !bst.pooledSrc.Get(s) {
			outcomes[i].general = true
		}
	}
	return produced
}

// countGeneral adds the general pass's per-op entering rows to the
// ledger's general-path counters, as runBoxedRow counts the fallback's:
// each kernel's from the batches' route counters, and each operator
// without a kernel (rename, resolve, ignore) the rows that enter the
// next operator — the rows boxed, after the last.
func (sr *stageRun) countGeneral(gp *stagePlan, routes [][]int64, produced []int64) {
	counts := make([]int64, len(gp.opNames))
	var next int64
	for b, route := range routes {
		for i, n := range route {
			counts[i] += n
		}
		next += produced[b]
	}
	k := len(gp.ops) - 1
	for ri := gp.termRouteIdx - 1; ri > 0; ri-- {
		if k >= 0 && gp.ops[k].ridx == ri {
			next = counts[ri]
			k--
		}
		sr.routing[ri].GeneralIn += next
	}
}

// boxCell is v.Slot(i).Value() without the slot in between.
func boxCell(v *colvec.Vec, i int) pyvalue.Value {
	if v.IsNull(i) {
		return pyvalue.None{}
	}
	switch v.Kind {
	case types.KindBool:
		return pyvalue.Bool(v.B[i])
	case types.KindI64:
		return pyvalue.Int(v.I[i])
	case types.KindF64:
		return pyvalue.Float(v.F[i])
	case types.KindStr:
		return pyvalue.Str(v.Str(i))
	}
	return v.Slot(i).Value()
}
