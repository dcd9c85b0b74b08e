package core

import (
	"math"

	"github.com/gotuplex/tuplex/internal/metrics"
)

// StripVec removes every vector program from the compiled plan — kernel
// programs and aggregate folds, in the pipeline and in its join build
// sides, in the general plans built so far and in those built later —
// and reports how many it found: afterwards the row closures do all the
// work, which is what the vector differential tests compare against.
func (cp *CompiledPlan) StripVec() int { return stripVec(cp.root) }

func stripVec(c *chainPlan) (n int) {
	for _, sl := range c.stages {
		for _, jb := range sl.builds {
			n += stripVec(jb.chain)
		}
		pl := sl.plan
		if pl == nil {
			continue
		}
		pl.noVec = true
		if pl.aggFold != nil {
			pl.aggFold = nil
			n++
		}
		for _, p := range []*stagePlan{pl, pl.general} {
			if p == nil || p.batch == nil {
				continue
			}
			for _, k := range p.batch.kernels {
				if k.vec != nil {
					k.vec = nil
					n++
				}
			}
		}
	}
	return n
}

// ResolvePerRow makes the plan's later runs resolve every pool row by row
// on the boxed general path, whatever the pool's size — phase 1 as it was
// before general plans.
func (cp *CompiledPlan) ResolvePerRow() { cp.generalCut = math.MaxInt }

// ResolveBatched makes the plan's later runs send every pool's raw
// records through the general plan, however few.
func (cp *CompiledPlan) ResolveBatched() { cp.generalCut = 1 }

// GeneralPlans reports how many general plans the process has built.
func GeneralPlans() int64 { return generalPlans.Load() }

// KernelBench readies the plan's first stage (a CSV source with a batch
// plan and no join) for a kernel benchmark: it parses records into one
// batch, once, and returns a function that runs the stage's kernel groups
// over that batch — no ingest, no sink — reporting the rows that went
// through vector programs and the rows those handed back, plus the
// stage's kernel-mode string.
func (cp *CompiledPlan) KernelBench(records [][]byte) (run func() (vectorRows, bailRows int64), kernels string) {
	pl := cp.root.stages[0].plan
	sr := &stageRun{}
	sr.attach(pl)
	ts := sr.newTask(&engine{opts: cp.opts}, 0)
	bst := sr.getBatchState(ts)
	bst.beginBatch()
	for i, rec := range records {
		if ec := pl.parse.ParseLineVecs(rec, bst.src); ec != 0 {
			panic("core: KernelBench record rejected by the parser")
		}
		bst.keys = append(bst.keys, uint64(i))
		bst.raws = append(bst.raws, rec)
	}
	return func() (int64, int64) {
		ts.vectorRows, ts.vectorBail, ts.pool = 0, 0, ts.pool[:0]
		bst.pooledSrc.Reset()
		bst.anyPooled = false
		sr.runKernels(ts, bst, 0)
		return ts.vectorRows, ts.vectorBail
	}, pl.kernelModes()
}

// GeneralCompiles reports how many general-path UDF closures the
// process has compiled so far.
func GeneralCompiles() int64 { return generalCompiles.Load() }

// ResolveBench readies the plan's first root stage for a resolve
// benchmark: it binds the stage, builds its join tables and runs its
// normal path once, keeping the exception pool that leaves behind. run
// resolves a fresh copy of that pool — the general plan, the per-row
// remainder, fallback retries and the terminal — and returns its size.
func (cp *CompiledPlan) ResolveBench() (run func() (int, error), err error) {
	sl := cp.root.stages[0]
	eng := &engine{opts: cp.opts, res: &Result{Metrics: &metrics.Metrics{}}, generalCut: cp.generalCut}
	sr, err := eng.bind(sl.st.Source, nil)
	if err != nil {
		return nil, err
	}
	defer sr.closeSource()
	for _, jb := range sl.builds {
		bt, err := eng.buildJoinTable(jb)
		if err != nil {
			return nil, err
		}
		sr.joins = append(sr.joins, bt)
	}
	sr.slot = sl
	sr.attach(sl.plan)
	out, err := eng.executeStage(sr)
	if err != nil {
		return nil, err
	}
	pool := out.exceptional
	return func() (int, error) {
		eng.res = &Result{Metrics: &metrics.Metrics{}}
		out.exceptional = append([]exRow(nil), pool...)
		_, err := eng.resolveExceptions(sr, out)
		return len(pool), err
	}, nil
}
