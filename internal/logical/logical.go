// Package logical defines the operator DAG Tuplex pipelines build and
// the logical optimizations of §4.7: projection pushdown into sources,
// filter pushdown through UDFs, and reordering of column-rewriting UDFs
// past selective joins. All three are possible only because the planner
// sees inside Python UDFs via pyast.AnalyzeColumns — the optimization the
// paper contrasts against Spark/Dask's black-box UDFs.
package logical

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
)

// UDFSpec is a parsed user function plus everything the planner knows
// about it.
type UDFSpec struct {
	Source  string
	Fn      *pyast.Function
	Access  *pyast.ColumnAccess
	Globals map[string]pyvalue.Value
}

// ParseUDF parses UDF source and analyzes its column access.
func ParseUDF(source string, globals map[string]pyvalue.Value) (*UDFSpec, error) {
	fn, err := pyast.ParseUDF(source)
	if err != nil {
		return nil, err
	}
	return &UDFSpec{
		Source:  source,
		Fn:      fn,
		Access:  pyast.AnalyzeColumns(fn),
		Globals: globals,
	}, nil
}

// Op is a logical operator.
type Op interface {
	Name() string
}

// CSVSource reads CSV data (from a path or preloaded bytes).
type CSVSource struct {
	Path string
	// Data preloads the file content (tests and generated data).
	Data []byte
	// Delim is the field delimiter (default ',').
	Delim byte
	// Header reports whether the first record is a header row.
	Header bool
	// Columns supplies column names when Header is false.
	Columns []string
	// NullValues are the null spellings for this source.
	NullValues []string
	// projected is the set of live columns recorded by projection
	// pushdown; nil means all columns.
	projected []string
}

// TextSource reads newline-delimited text as single-column rows.
type TextSource struct {
	Path string
	Data []byte
	// Column is the single column's name (default "value").
	Column string
}

// ParallelizeSource wraps in-memory rows: unboxed slots over a shared
// slab, so the engine classifies and executes them without a boxed
// detour.
type ParallelizeSource struct {
	SlotRows []rows.Row
	Names    []string
}

// MapOp replaces each row with the UDF result (dict/tuple results become
// multi-column rows).
type MapOp struct{ UDF *UDFSpec }

// FilterOp keeps rows whose UDF result is truthy.
type FilterOp struct{ UDF *UDFSpec }

// WithColumnOp adds or replaces a column computed from the whole row.
type WithColumnOp struct {
	Col string
	UDF *UDFSpec
}

// MapColumnOp rewrites one column; its UDF receives the column value.
type MapColumnOp struct {
	Col string
	UDF *UDFSpec
}

// RenameOp renames a column.
type RenameOp struct{ Old, New string }

// SelectOp projects to the named columns, in order.
type SelectOp struct{ Cols []string }

// ResolveOp attaches an exception resolver to the nearest preceding UDF
// operator (§3's .resolve example).
type ResolveOp struct {
	Exc pyvalue.ExcKind
	UDF *UDFSpec
}

// IgnoreOp drops rows that raised the given exception in the nearest
// preceding UDF operator.
type IgnoreOp struct{ Exc pyvalue.ExcKind }

// JoinOp hash-joins with another plan (the build side, per §4.5 the
// right/"smaller" input).
type JoinOp struct {
	Build    *Node
	LeftKey  string
	RightKey string
	// Left reports a left outer join (unmatched probe rows padded with
	// nulls).
	Left bool
	// LeftPrefix/RightPrefix prepend to column names of each side.
	LeftPrefix  string
	RightPrefix string
}

// AggregateOp folds all rows into one accumulator (§4.6).
type AggregateOp struct {
	// Agg is the per-row UDF: lambda acc, row: ...
	Agg *UDFSpec
	// Comb merges two partial accumulators: lambda a, b: ...
	Comb *UDFSpec
	// Initial is the initial accumulator value.
	Initial pyvalue.Value
}

// UniqueOp deduplicates rows.
type UniqueOp struct{}

// CacheOp materializes the rows at this point (stage boundary).
type CacheOp struct{}

func (*CSVSource) Name() string         { return "csv" }
func (*TextSource) Name() string        { return "text" }
func (*ParallelizeSource) Name() string { return "parallelize" }
func (*MapOp) Name() string             { return "map" }
func (*FilterOp) Name() string          { return "filter" }
func (*WithColumnOp) Name() string      { return "withColumn" }
func (*MapColumnOp) Name() string       { return "mapColumn" }
func (*RenameOp) Name() string          { return "renameColumn" }
func (*SelectOp) Name() string          { return "selectColumns" }
func (*ResolveOp) Name() string         { return "resolve" }
func (*IgnoreOp) Name() string          { return "ignore" }
func (*JoinOp) Name() string            { return "join" }
func (*AggregateOp) Name() string       { return "aggregate" }
func (*UniqueOp) Name() string          { return "unique" }
func (*CacheOp) Name() string           { return "cache" }

// Node is one vertex of the plan: an operator and its upstream input
// (nil for sources). Join build sides hang off the JoinOp itself.
type Node struct {
	Op    Op
	Input *Node
}

// Chain returns the operators from source to n, in execution order.
func (n *Node) Chain() []*Node {
	var out []*Node
	for cur := n; cur != nil; cur = cur.Input {
		out = append(out, cur)
	}
	// Reverse.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// String renders the chain for plan debugging.
func (n *Node) String() string {
	s := ""
	for i, nd := range n.Chain() {
		if i > 0 {
			s += " -> "
		}
		s += nd.Op.Name()
	}
	return s
}

// Options toggles the logical optimizations (Fig. 11 factors).
type Options struct {
	// ProjectionPushdown prunes unread columns at the source.
	ProjectionPushdown bool
	// FilterPushdown hoists filters above column-producing operators
	// they do not depend on.
	FilterPushdown bool
	// JoinReorder pushes column-rewriting UDFs past selective joins.
	JoinReorder bool
}

// AllOptimizations enables everything.
func AllOptimizations() Options {
	return Options{ProjectionPushdown: true, FilterPushdown: true, JoinReorder: true}
}

// Optimize rewrites the plan chain under opts and returns the new sink
// node. The required columns at the sink (for projection pushdown) are
// everything the sink itself needs; callers pass the final select's
// columns implicitly via the chain.
func Optimize(sink *Node, opts Options) (*Node, error) {
	nodes := sink.Chain()
	// Recursively optimize join build sides first.
	for _, nd := range nodes {
		if j, ok := nd.Op.(*JoinOp); ok {
			ob, err := Optimize(j.Build, opts)
			if err != nil {
				return nil, err
			}
			j.Build = ob
		}
	}
	ops := make([]Op, len(nodes))
	for i, nd := range nodes {
		ops[i] = nd.Op
	}
	var err error
	if opts.FilterPushdown {
		ops = pushdownFilters(ops)
	}
	if opts.JoinReorder {
		ops = reorderPastJoins(ops)
	}
	if opts.ProjectionPushdown {
		ops, err = pushdownProjection(ops)
		if err != nil {
			return nil, err
		}
	}
	return rebuild(ops), nil
}

func rebuild(ops []Op) *Node {
	var cur *Node
	for _, op := range ops {
		cur = &Node{Op: op, Input: cur}
	}
	return cur
}

// producedColumn returns the column an op writes, or "" when it writes
// none / is not a simple column producer.
func producedColumn(op Op) string {
	switch op := op.(type) {
	case *WithColumnOp:
		return op.Col
	case *MapColumnOp:
		return op.Col
	default:
		return ""
	}
}

// readsColumns returns the set of column names an op reads, and whether
// it must be treated as reading everything.
func readsColumns(op Op) (map[string]bool, bool) {
	switch op := op.(type) {
	case *FilterOp:
		return accessSet(op.UDF)
	case *MapOp:
		return accessSet(op.UDF)
	case *WithColumnOp:
		return accessSet(op.UDF)
	case *MapColumnOp:
		return map[string]bool{op.Col: true}, false
	case *JoinOp:
		return map[string]bool{op.LeftKey: true}, false
	case *SelectOp:
		s := map[string]bool{}
		for _, c := range op.Cols {
			s[c] = true
		}
		return s, false
	case *RenameOp:
		return map[string]bool{op.Old: true}, false
	case *AggregateOp, *UniqueOp, *CacheOp:
		return nil, true
	default:
		return map[string]bool{}, false
	}
}

func accessSet(u *UDFSpec) (map[string]bool, bool) {
	if u.Access.WholeRow || len(u.Access.ByIndex) > 0 {
		// Positional access pins every column (positions shift under
		// projection).
		return nil, true
	}
	s := map[string]bool{}
	for _, c := range u.Access.ByName {
		s[c] = true
	}
	return s, false
}

// pushdownFilters moves each filter up past operators that do not
// produce a column the filter reads and do not change row multiplicity
// or structure.
func pushdownFilters(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	changed := true
	for changed {
		changed = false
		for i := 1; i < len(out); i++ {
			f, isFilter := out[i].(*FilterOp)
			if !isFilter {
				continue
			}
			reads, whole := readsColumns(f)
			if whole {
				continue
			}
			prev := out[i-1]
			movable := false
			switch p := prev.(type) {
			case *WithColumnOp:
				movable = !reads[p.Col]
			case *MapColumnOp:
				movable = !reads[p.Col]
			case *RenameOp:
				// Filter below the rename must read the old name instead;
				// skip (names are part of UDF source).
				movable = false
			default:
				movable = false
			}
			if movable {
				out[i-1], out[i] = out[i], out[i-1]
				changed = true
			}
		}
	}
	return out
}

// reorderPastJoins pushes a MapColumn that rewrites a non-key column
// below a subsequent selective join (§6.3.1's weblog optimization): the
// join shrinks the row count, so the UDF runs on fewer rows.
func reorderPastJoins(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	changed := true
	for changed {
		changed = false
		for i := 0; i+1 < len(out); i++ {
			mc, isMapCol := out[i].(*MapColumnOp)
			if !isMapCol {
				continue
			}
			j, isJoin := out[i+1].(*JoinOp)
			if !isJoin {
				continue
			}
			if j.LeftKey == mc.Col {
				continue // the join reads this column
			}
			if j.LeftPrefix != "" {
				continue // renaming would orphan the UDF's column
			}
			out[i], out[i+1] = out[i+1], out[i]
			changed = true
		}
	}
	return out
}

// pushdownProjection computes, per plan position, which source columns
// are still needed downstream, narrows CSV sources to exactly those
// columns (the engine's generated parser then skips the rest), and
// eliminates column-producing operators whose output is dead.
func pushdownProjection(ops []Op) ([]Op, error) {
	// Walk backward accumulating required column names. A terminal
	// Select pins its columns; until one is seen, everything is live.
	required := map[string]bool{}
	all := true
	keep := make([]bool, len(ops))
	for i := range keep {
		keep[i] = true
	}
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i].(type) {
		case *SelectOp:
			if all {
				all = false
				required = map[string]bool{}
			}
			for _, c := range op.Cols {
				required[c] = true
			}
		case *RenameOp:
			if !all {
				if !required[op.New] {
					keep[i] = false // dead rename
					continue
				}
				delete(required, op.New)
				required[op.Old] = true
			}
		case *WithColumnOp:
			if !all {
				if !required[op.Col] {
					keep[i] = false // dead column producer
					continue
				}
				// The produced column no longer needs to come from
				// upstream; the UDF inputs do.
				delete(required, op.Col)
				reads, whole := accessSet(op.UDF)
				if whole {
					all = true
					continue
				}
				for c := range reads {
					required[c] = true
				}
			}
		case *MapColumnOp:
			if !all {
				if !required[op.Col] {
					keep[i] = false // rewrites a dead column
					continue
				}
				required[op.Col] = true
			}
		case *FilterOp:
			if !all {
				reads, whole := accessSet(op.UDF)
				if whole {
					all = true
					continue
				}
				for c := range reads {
					required[c] = true
				}
			}
		case *MapOp:
			if !all {
				reads, whole := accessSet(op.UDF)
				if whole {
					all = true
					continue
				}
				// A map replaces the whole row; upstream requirements are
				// exactly the UDF's reads.
				required = map[string]bool{}
				for c := range reads {
					required[c] = true
				}
			}
		case *JoinOp:
			if !all {
				// Columns produced by the build side come from the build
				// plan, not upstream (approximate; unknown names are
				// ignored at the source).
				for c := range buildSideColumns(op) {
					delete(required, c)
				}
				required[op.LeftKey] = true
			}
		case *AggregateOp, *UniqueOp:
			// Aggregations read whole rows (their UDFs index the row).
			all = true
		case *CSVSource:
			if !all {
				cols := make([]string, 0, len(required))
				for c := range required {
					cols = append(cols, c)
				}
				op.projected = cols
			} else {
				op.projected = nil
			}
		case *TextSource, *ParallelizeSource, *ResolveOp, *IgnoreOp, *CacheOp:
			// No effect on column liveness.
		default:
			return nil, fmt.Errorf("logical: projection pass: unhandled op %T", op)
		}
	}
	out := make([]Op, 0, len(ops))
	for i := 0; i < len(ops); i++ {
		if !keep[i] {
			// Resolvers/ignores attached to a dropped operator go with it.
			for i+1 < len(ops) {
				switch ops[i+1].(type) {
				case *ResolveOp, *IgnoreOp:
					i++
					continue
				}
				break
			}
			continue
		}
		out = append(out, ops[i])
	}
	return out, nil
}

// buildSideColumns approximates the column names the join's build side
// contributes (with prefix applied).
func buildSideColumns(j *JoinOp) map[string]bool {
	out := map[string]bool{}
	for _, nd := range j.Build.Chain() {
		switch op := nd.Op.(type) {
		case *CSVSource:
			for _, c := range op.Columns {
				out[j.RightPrefix+c] = true
			}
		case *WithColumnOp:
			out[j.RightPrefix+op.Col] = true
		case *RenameOp:
			delete(out, j.RightPrefix+op.Old)
			out[j.RightPrefix+op.New] = true
		case *SelectOp:
			keep := map[string]bool{}
			for _, c := range op.Cols {
				keep[j.RightPrefix+c] = true
			}
			for c := range out {
				if !keep[c] {
					delete(out, c)
				}
			}
		}
	}
	return out
}

// projected is stored on CSVSource by the optimizer.
func (s *CSVSource) Projected() []string { return s.projected }

// SetProjected allows the engine to override the pushed projection (for
// tests).
func (s *CSVSource) SetProjected(cols []string) { s.projected = cols }
