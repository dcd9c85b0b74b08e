// Package physical splits a logical plan into stages (§4.4): maximal
// runs of operators that process rows without materialization, bounded
// by operators that consume or produce materialized data — sources,
// aggregations, uniques, caches and the sink. Join build sides are
// separate plans executed first (§4.5); the probe lookup itself is fused
// into the surrounding stage, HyPer-style, so a row passes through as
// many UDFs as possible while hot in cache.
//
// With fusion disabled (the Fig. 11 ablation), every UDF-bearing
// operator terminates its stage, mimicking the optimization barriers of
// engines that treat UDFs as black boxes.
package physical

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/logical"
)

// TerminalKind says why a stage ends.
type TerminalKind uint8

const (
	// TerminalSink is the pipeline output (collect / tocsv).
	TerminalSink TerminalKind = iota
	// TerminalMaterialize materializes rows for the next stage.
	TerminalMaterialize
	// TerminalAggregate folds rows into an accumulator.
	TerminalAggregate
	// TerminalUnique deduplicates rows.
	TerminalUnique
)

// Stage is one unit of code generation and execution.
type Stage struct {
	// Source is the input operator when this is the first stage of a
	// plan; nil when the stage consumes the previous stage's
	// materialization.
	Source logical.Op
	// Ops are the fused operators, in order. Join ops reference their
	// (already separately planned) build sides.
	Ops []logical.Op
	// Terminal is the reason the stage ended.
	Terminal TerminalKind
	// TerminalOp is the aggregate/unique operator for those terminals.
	TerminalOp logical.Op
}

// Plan is an ordered list of stages for one chain (join build sides are
// planned recursively by the engine when it reaches the JoinOp).
type Plan struct {
	Stages []Stage
}

// Options controls stage formation.
type Options struct {
	// Fusion keeps stages maximal. When false, each UDF operator
	// terminates its stage.
	Fusion bool
}

// Split turns a logical chain into stages.
func Split(sink *logical.Node, opts Options) (*Plan, error) {
	nodes := sink.Chain()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("physical: empty plan")
	}
	p := &Plan{}
	cur := Stage{}
	switch nodes[0].Op.(type) {
	case *logical.CSVSource, *logical.TextSource, *logical.ParallelizeSource:
		cur.Source = nodes[0].Op
	default:
		return nil, fmt.Errorf("physical: plan does not start at a source (got %T)", nodes[0].Op)
	}
	flush := func(t TerminalKind, top logical.Op) {
		cur.Terminal = t
		cur.TerminalOp = top
		p.Stages = append(p.Stages, cur)
		cur = Stage{}
	}
	rest := nodes[1:]
	for i := 0; i < len(rest); i++ {
		switch op := rest[i].Op.(type) {
		case *logical.AggregateOp:
			flush(TerminalAggregate, op)
		case *logical.UniqueOp:
			flush(TerminalUnique, op)
		case *logical.CacheOp:
			flush(TerminalMaterialize, op)
		case *logical.CSVSource, *logical.TextSource, *logical.ParallelizeSource:
			return nil, fmt.Errorf("physical: source %T mid-plan", op)
		default:
			cur.Ops = append(cur.Ops, op)
			if !opts.Fusion && isUDFOp(op) {
				// Keep resolvers/ignores with the operator they modify.
				for i+1 < len(rest) {
					switch rest[i+1].Op.(type) {
					case *logical.ResolveOp, *logical.IgnoreOp:
						cur.Ops = append(cur.Ops, rest[i+1].Op)
						i++
						continue
					}
					break
				}
				if i+1 < len(rest) {
					flush(TerminalMaterialize, nil)
				}
			}
		}
	}
	// A chain that ended exactly at an aggregate, unique or cache has
	// already flushed its last stage, which feeds the sink as it is.
	if len(p.Stages) == 0 || len(cur.Ops) > 0 || cur.Source != nil {
		flush(TerminalSink, nil)
	}
	return p, nil
}

func isUDFOp(op logical.Op) bool {
	switch op.(type) {
	case *logical.MapOp, *logical.FilterOp, *logical.WithColumnOp, *logical.MapColumnOp, *logical.JoinOp:
		return true
	default:
		return false
	}
}

// NumStages reports the stage count (for metrics).
func (p *Plan) NumStages() int { return len(p.Stages) }
