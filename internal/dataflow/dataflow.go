// Package dataflow performs forward dataflow analysis over UDF ASTs on
// the normal-case path (§5.1 "code generation optimizations"). It runs a
// product lattice of constancy, nullability and integer intervals,
// seeded from two sources with very different soundness obligations:
//
//   - The normal-case types. The row classifier enforces the schema at
//     runtime, so type-derived facts (a non-Option column is never
//     None, a Null column is always None) hold unconditionally on the
//     normal path. These facts are dep-free.
//
//   - Per-column sample value statistics (internal/sample.ColumnStats:
//     constant cells, integer value ranges). The classifier does NOT
//     enforce these, so every fact derived from them carries a column
//     dependency bitmask. When the code generator consumes such a fact
//     (pruning a branch, folding a constant, eliding a check), the
//     load-bearing columns become runtime guards compiled into the UDF
//     prologue: rows violating a sampled constraint raise and re-execute
//     on the general path with full Python semantics, keeping optimized
//     and unoptimized runs byte-identical.
//
// Three consumers: internal/codegen (dead-branch pruning, constant
// folding, check elision), exception-site inference (which nodes can
// raise, and which kinds — so provably-non-raising guard code is
// skipped and dead resolvers are reported), and the UDF lint surface
// (unreachable code, always-raising expressions, unused variables,
// unsupported constructs) exposed through Result.Warnings.
//
// Constants fold through pyvalue.Binary, Unary and Compare, the boxed
// operator dispatch the general path runs, so a folded constant is the
// value (or the exception) that path computes; the operator questions the
// rules ask — which comparison mirrors or negates another, which operators
// divide — are methods of pyvalue.Op.
package dataflow

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// maxDepCols bounds the column-dependency bitmask; columns past this
// index get type facts only (never value-statistic facts).
const maxDepCols = 64

// ColFact seeds the analysis for one input column of the UDF.
type ColFact struct {
	// Type is the normal-case column type (drives dep-free nullability).
	Type types.Type
	// Const is the value every sampled cell held, when the column was
	// constant across the sample (nil otherwise). Must already match
	// Type's kind.
	Const pyvalue.Value
	// Lo/Hi is the sampled integer value range, valid when HasRange.
	Lo, Hi   int64
	HasRange bool
}

// Options configures one analysis run.
type Options struct {
	// Columns seeds per-column facts for the UDF's row parameter (or,
	// for a single scalar parameter, Columns[0] seeds the parameter
	// itself). Nil means type facts only.
	Columns []ColFact
	// NullFacts enables nullability seeding and refinement; off under
	// the §6.3.3 null-optimization ablation.
	NullFacts bool
	// Globals provides module-level constant values for folding.
	Globals map[string]pyvalue.Value
}

// Lint is one user-facing diagnostic about a UDF.
type Lint struct {
	Pos  pyast.Pos
	Code string // "unreachable", "constant-condition", "always-raises", "unused-var", "unsupported"
	Msg  string
}

func (l Lint) String() string {
	return fmt.Sprintf("%s: %s: %s", l.Pos, l.Code, l.Msg)
}

// Guard is one runtime precondition the compiled UDF must verify before
// running specialized code: the named input column must satisfy the
// sampled constraint the specialization rests on.
type Guard struct {
	// Col is the input column index (post-projection).
	Col int
	// Const, when non-nil, requires the cell to equal this value.
	Const pyvalue.Value
	// Lo/Hi require an integer cell in [Lo, Hi] when HasLo/HasHi.
	Lo, Hi       int64
	HasLo, HasHi bool
}

type deadInfo struct {
	arm  inference.Branch
	deps uint64
}

// Result carries the analysis facts for one UDF. The code generator
// queries it during compilation; queries that consume a sample-seeded
// fact mark the fact's columns as load-bearing, and RequiredGuards
// reports the guards those decisions require.
//
// Per-expression facts and always-raise sites live in slices indexed by
// the expression's parse number (pyast.Expr.Num). Index 0 stays top: a
// node outside 1..Fn.NumExprs — one not built by the UDF's parse — gets
// no facts and never always-raises.
type Result struct {
	info     *inference.Info
	facts    []Fact
	raises   []pyvalue.ExcKind // allocated on the first always-raise site
	dead     map[pyast.Node]deadInfo
	canRaise uint64 // bit k set: the UDF can raise ExcKind k
	lints    []Lint
	cols     []ColFact
	used     uint64
}

// Analyze runs the forward dataflow analysis for a typed UDF. It never
// mutates the AST; info must come from inference.TypeFunction.
func Analyze(info *inference.Info, opts Options) *Result {
	res := &Result{
		info:  info,
		facts: make([]Fact, info.Fn.NumExprs+1),
		cols:  opts.Columns,
	}
	a := &analyzer{info: info, opts: opts, res: res}
	a.run()
	res.lints = append(res.lints, failedLints(info)...)
	res.lints = append(res.lints, unusedVarLints(info.Fn)...)
	sortLints(res.lints)
	return res
}

// slot is e's index into the dense per-expression slices, or 0 (the
// slot that stays top) when e is not numbered by this UDF's parse.
func (r *Result) slot(e pyast.Expr) int {
	if n := e.Num(); n > 0 && n < len(r.facts) {
		return n
	}
	return 0
}

// fact is the recorded fact of e; the zero Fact (top) when none was.
func (r *Result) fact(e pyast.Expr) Fact {
	return r.facts[r.slot(e)]
}

// DeadBranch reports the statically dead arm of an If or IfExpr under
// the analysis facts (supplementing inference.Info.Dead), marking the
// decision's seeded columns as load-bearing.
func (r *Result) DeadBranch(n pyast.Node) inference.Branch {
	d, ok := r.dead[n]
	if !ok {
		return inference.DeadNone
	}
	r.used |= d.deps
	return d.arm
}

// Constant reports the constant value e always evaluates to, when known
// and exactly matching e's static type, marking the decision's seeded
// columns as load-bearing.
func (r *Result) Constant(e pyast.Expr) (pyvalue.Value, bool) {
	f := r.fact(e)
	if f.Const == nil || !matchesType(f.Const, e.Type()) {
		return nil, false
	}
	r.used |= f.deps
	return f.Const, true
}

// ConstantTruth reports the Python truthiness of e when e is a proven
// constant. ok is false when e's value is not known statically.
func (r *Result) ConstantTruth(e pyast.Expr) (bool, bool) {
	v, ok := r.Constant(e)
	if !ok {
		return false, false
	}
	return pyvalue.Truth(v), true
}

// AlwaysRaises reports that e unconditionally raises the returned
// exception kind (dep-free proofs only, so the exit is valid for every
// normal-case row).
func (r *Result) AlwaysRaises(e pyast.Expr) (pyvalue.ExcKind, bool) {
	var k pyvalue.ExcKind
	if r.raises != nil {
		k = r.raises[r.slot(e)]
	}
	return k, k != pyvalue.ExcOK
}

// NonNull reports whether e is provably not None, marking load-bearing
// columns.
func (r *Result) NonNull(e pyast.Expr) bool {
	f := r.fact(e)
	if f.Null != NullNever {
		return false
	}
	r.used |= f.deps
	return true
}

// NonZero reports whether e is provably a non-zero number, marking
// load-bearing columns.
func (r *Result) NonZero(e pyast.Expr) bool {
	f := r.fact(e)
	if !f.nonZero() {
		return false
	}
	r.used |= f.deps
	return true
}

// NonNegative reports whether e is provably ≥ 0, marking load-bearing
// columns.
func (r *Result) NonNegative(e pyast.Expr) bool {
	f := r.fact(e)
	if !f.nonNegative() {
		return false
	}
	r.used |= f.deps
	return true
}

// RequiredGuards lists the runtime guards the consumed facts require.
// Call after compilation has made all its queries.
func (r *Result) RequiredGuards() []Guard {
	var gs []Guard
	for i, cf := range r.cols {
		if i >= maxDepCols || r.used&(1<<uint(i)) == 0 {
			continue
		}
		g := Guard{Col: i}
		if cf.Const != nil {
			g.Const = cf.Const
		} else if cf.HasRange {
			g.Lo, g.Hi, g.HasLo, g.HasHi = cf.Lo, cf.Hi, true, true
		} else {
			continue
		}
		gs = append(gs, g)
	}
	return gs
}

// CanRaise lists the exception kinds the UDF can raise on the
// normal-case path, conservatively over-approximated. An empty slice is
// a proof the compiled UDF never raises.
func (r *Result) CanRaise() []pyvalue.ExcKind {
	ks := make([]pyvalue.ExcKind, 0, bits.OnesCount64(r.canRaise))
	for m := r.canRaise; m != 0; m &= m - 1 {
		ks = append(ks, pyvalue.ExcKind(bits.TrailingZeros64(m)))
	}
	return ks
}

// MayRaise reports whether the UDF can raise the given kind.
func (r *Result) MayRaise(k pyvalue.ExcKind) bool { return r.canRaise&(1<<k) != 0 }

// Lints returns the user-facing diagnostics, ordered by position. The
// lint set is independent of sample value statistics and optimization
// flags: only structural and dep-free findings are reported, so the
// same UDF always lints the same way.
func (r *Result) Lints() []Lint { return r.lints }

// PrunedBranches counts fact-derived dead arms found by this analysis
// (excluding those inference already found).
func (r *Result) PrunedBranches() int { return len(r.dead) }

func sortLints(ls []Lint) {
	sort.SliceStable(ls, func(i, j int) bool {
		if ls[i].Pos.Line != ls[j].Pos.Line {
			return ls[i].Pos.Line < ls[j].Pos.Line
		}
		return ls[i].Pos.Col < ls[j].Pos.Col
	})
}
