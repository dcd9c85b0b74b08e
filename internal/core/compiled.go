package core

import (
	"context"
	"time"

	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/metrics"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// CompiledPlan is a reusable compilation artifact: per stage, the
// sampled normal case, the generated closures and the columnar batch
// plan (a stagePlan), laid out as the tree of stage chains the run
// executes. Re-executing it skips sampling, type inference, dataflow
// analysis and code generation — the amortization a long-lived service
// needs (Tupleware's "distributed shared jobs"; ROADMAP item 2).
//
// There is one execution path. Every run — Execute, CompileAndExecute or
// a re-execution — walks the tree with the same per-stage loop: bind the
// source, compile the stage only if its slot is still empty, run. A
// first run starts from an empty tree and leaves it full; later runs
// find every slot full and only bind and run.
//
// Once full, a CompiledPlan is immutable and safe for concurrent Execute
// calls. Everything a run produces or reads from the outside world —
// source bindings, join build tables, tasks, exception pools, boxed
// interpreters, routing ledgers — lives on that run's stageRuns, which
// the plan's types cannot reference. In particular every execution
// re-reads every source, join build sides included, and hashes its own
// build tables.
//
// What a plan bakes in is what compile saw: the pipeline and each
// source's sampled prefix (header names, column count, normal-case
// types). Input that differs from the sample beyond that — a drifted
// tail — is the dual-mode design's ordinary case: non-conforming rows
// are classifier rejects and take the general/fallback paths, slower
// but correct. Input that differs in what was baked in (say, renamed
// header columns) is a different pipeline, and re-executing the old
// plan over it is wrong; callers that reuse plans (the service cache)
// key them by pipeline and input prefix (spec.Fingerprint).
type CompiledPlan struct {
	opts Options
	kind SinkKind
	root *chainPlan
	// generalCut overrides the engine's generalCut (a test hook).
	generalCut int
}

// chainPlan is the plan of one chain of stages: the pipeline itself or a
// join's build side.
type chainPlan struct {
	stages []*stageSlot
}

// stageSlot is one stage's place in the plan tree. newChainPlan lays out
// the physical stage and its join build sides; plan is filled by the
// first run that reaches the stage.
type stageSlot struct {
	st *physical.Stage
	// emit is the form the stage's tasks write. The pipeline's final
	// stage writes its sink's form inside its tasks; every other stage,
	// and every stage of a build-side chain (whatever the pipeline's sink
	// is), materializes rows.
	emit emitForm
	// builds holds the build side of each JoinOp in st.Ops, in order.
	builds []*joinBuild
	plan   *stagePlan
}

// emitForm is the form a stage's tasks write their output in.
type emitForm uint8

const (
	// emitRows materializes slot rows for the next consumer: an interior
	// stage, a join build table, the unique merge.
	emitRows emitForm = iota
	// emitCSV renders CSV (the final stage under a CSV sink).
	emitCSV
	// emitVecs appends to per-task column vectors, which finish boxes
	// (the final stage under a collect sink).
	emitVecs
)

// joinBuild is the build side of one join: the operator and the chain
// that produces its rows.
type joinBuild struct {
	op    *logical.JoinOp
	chain *chainPlan
}

// newChainPlan splits the plan rooted at sinkNode into stages and lays
// out the (still uncompiled) tree, build sides included; the chain's
// final stage writes emit.
func newChainPlan(sinkNode *logical.Node, emit emitForm, fusion bool) (*chainPlan, error) {
	pplan, err := physical.Split(sinkNode, physical.Options{Fusion: fusion})
	if err != nil {
		return nil, err
	}
	c := &chainPlan{stages: make([]*stageSlot, len(pplan.Stages))}
	for si := range pplan.Stages {
		st := &pplan.Stages[si]
		sl := &stageSlot{st: st}
		if st.Terminal == physical.TerminalSink {
			sl.emit = emit
		}
		for _, op := range st.Ops {
			if j, ok := op.(*logical.JoinOp); ok {
				build, err := newChainPlan(j.Build, emitRows, fusion)
				if err != nil {
					return nil, err
				}
				sl.builds = append(sl.builds, &joinBuild{op: j, chain: build})
			}
		}
		c.stages[si] = sl
	}
	return c, nil
}

// outSchema is the schema of the chain's result (its last stage must
// have been compiled).
func (c *chainPlan) outSchema() *types.Schema {
	return c.stages[len(c.stages)-1].plan.outSchema
}

// numStages counts the chain's stages, build sides included.
func (c *chainPlan) numStages() int {
	n := len(c.stages)
	for _, sl := range c.stages {
		for _, jb := range sl.builds {
			n += jb.chain.numStages()
		}
	}
	return n
}

// Stages reports the plan's stage count (observability only).
func (cp *CompiledPlan) Stages() int { return cp.root.numStages() }

// Kind reports the plan's sink form.
func (cp *CompiledPlan) Kind() SinkKind { return cp.kind }

// Execute re-runs the compiled plan against its sources under ctx. The
// run uses the options the plan was compiled with (partitioning,
// streaming and columnar choices are baked into the compiled
// artifacts); csvPath optionally redirects a CSV sink to a file, exactly
// like Execute's parameter.
func (cp *CompiledPlan) Execute(ctx context.Context, csvPath string) (*Result, error) {
	return cp.run(ctx, nil, csvPath, "")
}

// ExecuteLabeled is Execute with a per-run telemetry label override, so
// a long-lived service can attribute each warm re-execution of a shared
// plan to the job that requested it in /metrics and /runz.
func (cp *CompiledPlan) ExecuteLabeled(ctx context.Context, csvPath, label string) (*Result, error) {
	return cp.run(ctx, nil, csvPath, label)
}

// run executes the plan once. sinkNode is non-nil exactly on the first
// run of a new CompiledPlan (CompileAndExecute), whose tree is laid out
// here from the optimized logical plan; that is the only difference
// between a cold and a warm run at this level.
func (cp *CompiledPlan) run(ctx context.Context, sinkNode *logical.Node, csvPath, label string) (*Result, error) {
	opts := cp.opts
	if label != "" {
		opts.Telemetry.Label = label
	}
	res := &Result{Metrics: &metrics.Metrics{}}
	t0 := time.Now()
	eng := &engine{ctx: ctx, opts: opts, res: res, tr: trace.New(opts.Trace), generalCut: cp.generalCut}
	// Live monitoring: only when opted in (or an introspection server is
	// up) does a RunMonitor exist — with mon nil every hook below is a
	// nil-receiver no-op and the execution path is the unmonitored one.
	if opts.Telemetry.Enabled || telemetry.AutoEnabled() {
		eng.mon = telemetry.NewRunMonitor(opts.Telemetry, res.Metrics, opts.Executors)
		telemetry.Default.Register(eng.mon)
		eng.mon.Start()
		defer func() {
			eng.mon.Stop()
			telemetry.Default.Unregister(eng.mon)
		}()
	}

	if sinkNode != nil {
		tOpt := time.Now()
		optimized := opts.Logical != (logical.Options{})
		if optimized {
			var err error
			if sinkNode, err = logical.Optimize(sinkNode, opts.Logical); err != nil {
				return nil, err
			}
		}
		emit := emitVecs
		if cp.kind == SinkCSV {
			emit = emitCSV
		}
		root, err := newChainPlan(sinkNode, emit, opts.Fusion)
		if err != nil {
			return nil, err
		}
		cp.root = root
		res.Metrics.Timings.Optimize = time.Since(tOpt)
		eng.tr.Child("plan", res.Metrics.Timings.Optimize, trace.Bool("optimized", optimized))
	} else {
		eng.tr.Child("plan", 0, trace.Bool("cached", true))
	}

	out, err := eng.runChain(cp.root)
	if err != nil {
		return nil, err
	}
	tSink := time.Now()
	if err := eng.finish(out, cp.kind, csvPath, res); err != nil {
		return nil, err
	}
	eng.tr.Child("sink", time.Since(tSink),
		trace.Str("kind", sinkName(cp.kind)),
		trace.Int("output_rows", res.Metrics.Counters.OutputRows.Load()))
	res.Metrics.Timings.Total = time.Since(t0)
	res.Warnings = append(res.Warnings, eng.warns.flush()...)
	res.Metrics.Latency = eng.mon.Latency()
	res.Trace = eng.tr.Finish()
	return res, nil
}
