package dataflow

import (
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

func analyzeUDF(t *testing.T, src string, schema *types.Schema, opts Options) (*Result, *inference.Info) {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := inference.TypeFunction(fn, []types.Type{types.Row(schema)}, nil, inference.Options{})
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return Analyze(info, opts), info
}

func analyzeScalar(t *testing.T, src string, paramT types.Type, opts Options) (*Result, *inference.Info) {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := inference.TypeFunction(fn, []types.Type{paramT}, nil, inference.Options{})
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return Analyze(info, opts), info
}

func findExpr(t *testing.T, fn *pyast.Function, pred func(pyast.Expr) bool) pyast.Expr {
	t.Helper()
	var found pyast.Expr
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		if found != nil {
			return false
		}
		if e, ok := n.(pyast.Expr); ok && pred(e) {
			found = e
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("no matching expression in %s", fn.Source)
	}
	return found
}

func sch(cols ...types.Column) *types.Schema { return types.NewSchema(cols) }

func TestConstantColumnFoldsWithGuard(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	res, info := analyzeUDF(t, "lambda x: x['a'] * 2", s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Const: pyvalue.Int(5)}},
	})
	mul := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		_, ok := e.(*pyast.BinOp)
		return ok
	})
	v, ok := res.Constant(mul)
	if !ok {
		t.Fatalf("product of constant column not folded")
	}
	if iv, _ := v.(pyvalue.Int); iv != 10 {
		t.Fatalf("folded to %v, want 10", v)
	}
	gs := res.RequiredGuards()
	if len(gs) != 1 || gs[0].Col != 0 || !sameScalar(gs[0].Const, pyvalue.Int(5)) {
		t.Fatalf("guards = %+v, want equality guard on col 0", gs)
	}
}

func TestUnusedFactsRequireNoGuards(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	res, _ := analyzeUDF(t, "lambda x: x['a'] * 2", s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Const: pyvalue.Int(5)}},
	})
	if gs := res.RequiredGuards(); len(gs) != 0 {
		t.Fatalf("no queries made, but guards = %+v", gs)
	}
}

func TestIntervalDeadBranch(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	res, info := analyzeUDF(t, "lambda x: 1 if x['a'] > 100 else 0", s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Lo: 0, Hi: 10, HasRange: true}},
	})
	ife := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		_, ok := e.(*pyast.IfExpr)
		return ok
	})
	if arm := res.DeadBranch(ife); arm != inference.DeadThen {
		t.Fatalf("dead arm = %v, want DeadThen", arm)
	}
	gs := res.RequiredGuards()
	if len(gs) != 1 || !gs[0].HasLo || gs[0].Lo != 0 || gs[0].Hi != 10 {
		t.Fatalf("guards = %+v, want range guard [0,10] on col 0", gs)
	}
}

func TestNullColumnDeadBranchIsDepFree(t *testing.T) {
	// A δ-typed Null column: the classifier enforces None, so pruning
	// on it needs no guard.
	s := sch(types.Column{Name: "a", Type: types.Null}, types.Column{Name: "b", Type: types.I64})
	res, info := analyzeUDF(t, "lambda x: x['b'] if x['a'] is None else 0", s, Options{NullFacts: true})
	ife := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		_, ok := e.(*pyast.IfExpr)
		return ok
	})
	if arm := res.DeadBranch(ife); arm != inference.DeadElse {
		t.Fatalf("dead arm = %v, want DeadElse", arm)
	}
	if gs := res.RequiredGuards(); len(gs) != 0 {
		t.Fatalf("type-derived pruning should be guard-free, got %+v", gs)
	}
}

func TestIsNoneRefinementProvesNonNull(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.Option(types.I64)})
	src := "def f(x):\n    if x['a'] is None:\n        return 0\n    return x['a'] + 1"
	res, info := analyzeUDF(t, src, s, Options{NullFacts: true})
	// The x['a'] inside the final return is refined non-null.
	var last pyast.Expr
	pyast.InspectStmts(info.Fn.Body, func(n pyast.Node) bool {
		if sub, ok := n.(*pyast.Subscript); ok && sub.RowIdx == 0 {
			last = sub
		}
		return true
	})
	if last == nil {
		t.Fatal("no row subscript found")
	}
	if !res.NonNull(last) {
		t.Fatal("x['a'] after the None check should be non-null")
	}
	if gs := res.RequiredGuards(); len(gs) != 0 {
		t.Fatalf("control-flow refinement should be guard-free, got %+v", gs)
	}
}

func TestNullFactsGate(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.Option(types.I64)})
	src := "def f(x):\n    if x['a'] is None:\n        return 0\n    return x['a'] + 1"
	res, info := analyzeUDF(t, src, s, Options{NullFacts: false})
	var last pyast.Expr
	pyast.InspectStmts(info.Fn.Body, func(n pyast.Node) bool {
		if sub, ok := n.(*pyast.Subscript); ok && sub.RowIdx == 0 {
			last = sub
		}
		return true
	})
	if res.NonNull(last) {
		t.Fatal("null facts disabled, but NonNull proved")
	}
}

func TestAlwaysRaisesAndLint(t *testing.T) {
	res, info := analyzeScalar(t, "lambda x: 1 // 0", types.I64, Options{NullFacts: true})
	div := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpFloorDiv
	})
	k, ok := res.AlwaysRaises(div)
	if !ok || k != pyvalue.ExcZeroDivisionError {
		t.Fatalf("AlwaysRaises = %v,%v, want ZeroDivisionError", k, ok)
	}
	found := false
	for _, l := range res.Lints() {
		if l.Code == "always-raises" && strings.Contains(l.Msg, "ZeroDivisionError") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing always-raises lint, got %v", res.Lints())
	}
}

func TestCanRaiseEmptyForPureArithmetic(t *testing.T) {
	res, _ := analyzeScalar(t, "lambda x: x * 2 + 1", types.I64, Options{NullFacts: true})
	if ks := res.CanRaise(); len(ks) != 0 {
		t.Fatalf("pure int arithmetic should be non-raising, got %v", ks)
	}
}

func TestCanRaiseZeroDivision(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64}, types.Column{Name: "b", Type: types.I64})
	res, _ := analyzeUDF(t, "lambda x: x['a'] // x['b']", s, Options{NullFacts: true})
	if !res.MayRaise(pyvalue.ExcZeroDivisionError) {
		t.Fatalf("division by a column should report ZeroDivisionError, got %v", res.CanRaise())
	}
}

func TestSeededRangeElidesZeroCheck(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64}, types.Column{Name: "b", Type: types.I64})
	res, info := analyzeUDF(t, "lambda x: x['a'] // x['b']", s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64}, {Type: types.I64, Lo: 1, Hi: 9, HasRange: true}},
	})
	div := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpFloorDiv
	})
	b := div.(*pyast.BinOp)
	if !res.NonZero(b.Right) {
		t.Fatal("seeded range [1,9] should prove the divisor non-zero")
	}
	gs := res.RequiredGuards()
	if len(gs) != 1 || gs[0].Col != 1 {
		t.Fatalf("guards = %+v, want range guard on col 1", gs)
	}
	// The divisor being provably non-zero under a *guarded* fact means
	// the raise site disappears only with the guard in place; CanRaise
	// stays conservative.
	if !res.MayRaise(pyvalue.ExcZeroDivisionError) {
		t.Fatal("dep-bearing non-zero proof must not remove the CanRaise site")
	}
}

func TestTruthinessRefinement(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	src := "def f(x):\n    if x['a']:\n        return 10 // x['a']\n    return 0"
	res, info := analyzeUDF(t, src, s, Options{NullFacts: true})
	div := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpFloorDiv
	})
	b := div.(*pyast.BinOp)
	if !res.NonZero(b.Right) {
		t.Fatal("truthy branch should prove x['a'] != 0")
	}
	if gs := res.RequiredGuards(); len(gs) != 0 {
		t.Fatalf("truthiness refinement should be guard-free, got %+v", gs)
	}
}

func TestOrderRefinement(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	src := "def f(x):\n    if x['a'] >= 3:\n        return x['a'] % 7\n    return -1"
	res, info := analyzeUDF(t, src, s, Options{NullFacts: true})
	mod := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpMod
	})
	b := mod.(*pyast.BinOp)
	if !res.NonZero(b.Left) {
		t.Fatal(">= 3 refinement should prove the dividend non-zero")
	}
	// And the mod result itself is bounded [0,6] → non-negative.
	if !res.NonNegative(mod) {
		t.Fatal("x % 7 should be provably non-negative")
	}
}

func TestUnreachableLint(t *testing.T) {
	src := "def f(x):\n    return x\n    y = 1"
	res, _ := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	found := false
	for _, l := range res.Lints() {
		if l.Code == "unreachable" && l.Pos.Line == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing unreachable lint at line 3, got %v", res.Lints())
	}
}

func TestUnusedVarLint(t *testing.T) {
	src := "def f(x):\n    y = x * 2\n    z = x + 1\n    return z"
	res, _ := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	found := false
	for _, l := range res.Lints() {
		if l.Code == "unused-var" && strings.Contains(l.Msg, "y") {
			found = true
		}
		if l.Code == "unused-var" && strings.Contains(l.Msg, "z") {
			t.Fatalf("z is used but linted: %v", l)
		}
	}
	if !found {
		t.Fatalf("missing unused-var lint for y, got %v", res.Lints())
	}
}

func TestConstantConditionLint(t *testing.T) {
	src := "def f(x):\n    if True:\n        return 1\n    return 2"
	res, _ := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	found := false
	for _, l := range res.Lints() {
		if l.Code == "constant-condition" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing constant-condition lint, got %v", res.Lints())
	}
}

func TestLintsStableAcrossSeeding(t *testing.T) {
	// The lint surface must not depend on sample statistics or flags.
	s := sch(types.Column{Name: "a", Type: types.I64})
	src := "def f(x):\n    y = 1\n    if x['a'] > 5:\n        return 1 // 0\n    return 0"
	seeded, _ := analyzeUDF(t, src, s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Lo: 0, Hi: 3, HasRange: true}},
	})
	bare, _ := analyzeUDF(t, src, s, Options{NullFacts: false})
	a, b := seeded.Lints(), bare.Lints()
	if len(a) != len(b) {
		t.Fatalf("lints differ under seeding: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lint %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRowAliasTracksFacts(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	src := "def f(x):\n    y = x\n    return y['a'] * 2"
	res, info := analyzeUDF(t, src, s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Const: pyvalue.Int(3)}},
	})
	mul := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpMul
	})
	if v, ok := res.Constant(mul); !ok || int64(v.(pyvalue.Int)) != 6 {
		t.Fatalf("aliased row subscript should fold, got %v %v", v, ok)
	}
}

func TestRowMutationKillsFacts(t *testing.T) {
	s := sch(types.Column{Name: "a", Type: types.I64})
	src := "def f(x):\n    x['a'] = 7\n    return x['a'] * 2"
	res, info := analyzeUDF(t, src, s, Options{
		NullFacts: true,
		Columns:   []ColFact{{Type: types.I64, Const: pyvalue.Int(3)}},
	})
	mul := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpMul
	})
	if _, ok := res.Constant(mul); ok {
		t.Fatal("facts must not survive row mutation")
	}
}

func TestBranchJoinWidensConstants(t *testing.T) {
	src := "def f(x):\n    if x > 0:\n        y = 1\n    else:\n        y = 2\n    return y"
	res, info := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	ret := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		n, ok := e.(*pyast.Name)
		return ok && n.Ident == "y"
	})
	_ = ret
	// y is 1 or 2 → not a constant, but interval [1,2] → non-zero.
	var yRead pyast.Expr
	pyast.InspectStmts(info.Fn.Body, func(n pyast.Node) bool {
		if r, ok := n.(*pyast.Return); ok {
			if nm, ok2 := r.X.(*pyast.Name); ok2 && nm.Ident == "y" {
				yRead = nm
			}
		}
		return true
	})
	if yRead == nil {
		t.Fatal("no return-position read of y")
	}
	if _, ok := res.Constant(yRead); ok {
		t.Fatal("y is not constant after the join")
	}
	if !res.NonZero(yRead) {
		t.Fatal("joined interval [1,2] should prove y non-zero")
	}
}

func TestMaybeUnsetNameRaises(t *testing.T) {
	src := "def f(x):\n    if x > 0:\n        y = 1\n    return y"
	res, _ := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	if !res.MayRaise(pyvalue.ExcNameError) {
		t.Fatalf("conditionally-bound y should add NameError, got %v", res.CanRaise())
	}
}

func TestLoopKillsFacts(t *testing.T) {
	src := "def f(x):\n    y = 5\n    for i in range(x):\n        y = y + 1\n    return 10 // y"
	res, info := analyzeScalar(t, src, types.I64, Options{NullFacts: true})
	div := findExpr(t, info.Fn, func(e pyast.Expr) bool {
		b, ok := e.(*pyast.BinOp)
		return ok && b.Op == pyvalue.OpFloorDiv
	})
	b := div.(*pyast.BinOp)
	if res.NonZero(b.Right) {
		t.Fatal("loop-carried y must lose its facts")
	}
}
