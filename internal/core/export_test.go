package core

// StripVec removes every vector program from the compiled plan — kernel
// programs and aggregate folds, in the pipeline and in its join build
// sides — and reports how many it found: afterwards the row closures do
// all the work, which is what the vector differential tests compare
// against.
func (cp *CompiledPlan) StripVec() int { return stripVec(cp.root) }

func stripVec(c *chainPlan) (n int) {
	for _, sl := range c.stages {
		for _, jb := range sl.builds {
			n += stripVec(jb.chain)
		}
		if sl.plan == nil {
			continue
		}
		if sl.plan.aggFold != nil {
			sl.plan.aggFold = nil
			n++
		}
		if sl.plan.batch != nil {
			for _, k := range sl.plan.batch.kernels {
				if k.vec != nil {
					k.vec = nil
					n++
				}
			}
		}
	}
	return n
}

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
