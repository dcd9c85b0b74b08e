package core

import (
	"math"
	"runtime"
	"sync"

	"github.com/gotuplex/tuplex/internal/csvio"
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
			if p == nil {
				continue
			}
			for _, k := range p.ops {
				if k.vec != nil {
					k.vec = nil
					n++
				}
			}
		}
	}
	return n
}

// ResolveFallback makes the plan's later runs resolve every pool row on
// the fallback, whatever the pool's size: no general plan is used.
func (cp *CompiledPlan) ResolveFallback() { cp.generalCut = math.MaxInt }

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

// ResolveBench readies the plan's first root stage for a resolve
// benchmark: it binds the stage, builds its join tables and runs its
// normal path once, keeping the exception pool that leaves behind. run
// resolves a fresh copy of that pool — the general plan, the fallback
// for the rest and the terminal — and returns its size.
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

// CountChunkBuffers makes the sources opened until restore is called
// record their chunk pools; buffers reports how many chunk buffers those
// pools have allocated so far.
func CountChunkBuffers() (buffers func() int, restore func()) {
	var mu sync.Mutex
	var pools []*csvio.ChunkPool
	newChunkPool = func(size int) *csvio.ChunkPool {
		p := csvio.NewChunkPool(size)
		mu.Lock()
		pools = append(pools, p)
		mu.Unlock()
		return p
	}
	buffers = func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, p := range pools {
			n += p.Buffers()
		}
		return n
	}
	return buffers, func() { newChunkPool = csvio.NewChunkPool }
}

// MemStatsAtStageReads makes every per-stage allocation read, until
// restore is called, first call runtime.ReadMemStats, which flushes the
// per-P allocation caches, and record its Mallocs: at those points the
// runtime/metrics count the stage reads must equal MemStats.Mallocs.
// mallocs reports the recorded values, two per stage.
func MemStatsAtStageReads() (mallocs func() []uint64, restore func()) {
	var mu sync.Mutex
	var got []uint64
	readMallocs = func(m *metrics.Mallocs) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := m.Read()
		mu.Lock()
		got = append(got, ms.Mallocs)
		mu.Unlock()
		return n
	}
	mallocs = func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), got...)
	}
	return mallocs, func() { readMallocs = (*metrics.Mallocs).Read }
}
