package inference

import (
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// expr types one expression, annotates the node and returns its type.
func (t *typer) expr(x pyast.Expr, env scope) types.Type {
	ty := t.exprInner(x, env)
	x.SetType(ty)
	return ty
}

func (t *typer) exprInner(x pyast.Expr, env scope) types.Type {
	switch x := x.(type) {
	case *pyast.NumLit:
		if x.IsFloat {
			return types.F64
		}
		return types.I64
	case *pyast.StrLit:
		return types.Str
	case *pyast.BoolLit:
		return types.Bool
	case *pyast.NoneLit:
		return types.Null
	case *pyast.Name:
		if ty, ok := env[x.Ident]; ok {
			return ty
		}
		if ty, ok := t.info.Globals[x.Ident]; ok {
			return ty
		}
		return t.fail(x, "NameError", "name %q is not defined", x.Ident)
	case *pyast.BinOp:
		l := t.expr(x.Left, env)
		r := t.expr(x.Right, env)
		return t.binOpType(x, x.Op, l, r)
	case *pyast.UnaryOp:
		v := t.expr(x.X, env)
		return t.unaryOpType(x, x.Op, v)
	case *pyast.Compare:
		t.expr(x.First, env)
		prev := x.First.Type()
		for i, op := range x.Ops {
			t.expr(x.Rest[i], env)
			cur := x.Rest[i].Type()
			t.checkComparable(x, op, prev, cur)
			prev = cur
		}
		return types.Bool
	case *pyast.BoolOp:
		var u types.Type
		for _, sub := range x.Xs {
			u = types.Unify(u, t.expr(sub, env))
		}
		// `a and b` yields one of the operands; unified type covers both.
		if u.Kind() == types.KindAny {
			return t.fail(x, "", "boolean operands have incompatible types")
		}
		return u
	case *pyast.IfExpr:
		condT := t.expr(x.Cond, env)
		if !t.opts.DisableNullPruning {
			switch staticTruth(x.Cond, condT) {
			case truthFalse:
				t.info.Dead[x] = DeadThen
				return t.expr(x.Else, env)
			case truthTrue:
				t.info.Dead[x] = DeadElse
				return t.expr(x.Then, env)
			}
		}
		a := t.expr(x.Then, env)
		b := t.expr(x.Else, env)
		u := types.Unify(a, b)
		if u.Kind() == types.KindAny && a.Kind() != types.KindAny && b.Kind() != types.KindAny {
			return t.fail(x, "", "conditional arms have incompatible types %s and %s", a, b)
		}
		return u
	case *pyast.Subscript:
		return t.subscriptType(x, env)
	case *pyast.Slice:
		return t.sliceType(x, env)
	case *pyast.TupleLit:
		elts := make([]types.Type, len(x.Elts))
		for i, e := range x.Elts {
			elts[i] = t.expr(e, env)
		}
		return types.Tuple(elts...)
	case *pyast.ListLit:
		var u types.Type
		for _, e := range x.Elts {
			u = types.Unify(u, t.expr(e, env))
		}
		if !u.IsValid() {
			u = types.Any // empty list: element type unconstrained
		}
		if u.Kind() == types.KindAny && len(x.Elts) > 0 {
			return t.fail(x, "", "list elements have incompatible types")
		}
		return types.List(u)
	case *pyast.DictLit:
		// Constant-keyed dict literals are row-shaped (the idiom map UDFs
		// use to emit named columns); type them as heterogeneous rows so
		// per-column types survive into the output schema.
		cols := make([]types.Column, len(x.Keys))
		for i := range x.Keys {
			lit, ok := x.Keys[i].(*pyast.StrLit)
			if !ok {
				return t.fail(x, "", "only constant string dict keys are compilable")
			}
			t.expr(x.Keys[i], env)
			cols[i] = types.Column{Name: lit.S, Type: t.expr(x.Vals[i], env)}
		}
		return types.Row(types.NewSchema(cols))
	case *pyast.ListComp:
		iterT := t.expr(x.Iter, env)
		eltIn := elementType(iterT)
		if !eltIn.IsValid() {
			return t.fail(x.Iter, "TypeError", "%s is not iterable", iterT)
		}
		inner := env.clone()
		inner[x.Var] = eltIn
		if x.Cond != nil {
			t.expr(x.Cond, inner)
		}
		eltOut := t.expr(x.Elt, inner)
		return types.List(eltOut)
	case *pyast.Call:
		return t.callType(x, env)
	case *pyast.Attr:
		// Bare attribute (no call): not compilable.
		t.expr(x.X, env)
		return t.fail(x, "", "bare attribute access %q is not compilable", x.Name)
	case *pyast.Lambda:
		return t.fail(x, "", "nested lambda")
	default:
		return t.fail(x, "", "unsupported expression %T", x)
	}
}

// ConstIntIndex extracts a compile-time integer constant from an index
// expression (a literal or a negated literal). Exported for the code
// generator, which resolves constant tuple/row indices statically.
func ConstIntIndex(e pyast.Expr) (int, bool) {
	switch e := e.(type) {
	case *pyast.NumLit:
		if !e.IsFloat {
			return int(e.I), true
		}
	case *pyast.UnaryOp:
		if e.Op == pyvalue.OpSub {
			if lit, ok := e.X.(*pyast.NumLit); ok && !lit.IsFloat {
				return -int(lit.I), true
			}
		}
	}
	return 0, false
}

// numKind returns the numeric rank of a type for arithmetic: 0 not
// numeric, 1 bool, 2 i64, 3 f64. Options unwrap (runtime null checks are
// the code generator's job).
func numKind(ty types.Type) int {
	switch ty.Unwrap().Kind() {
	case types.KindBool:
		return 1
	case types.KindI64:
		return 2
	case types.KindF64:
		return 3
	default:
		return 0
	}
}

// binOpType is the result type of l op r, or a failure: the raise of
// the boxed pyvalue.Binary where the operand types decide it.
func (t *typer) binOpType(n pyast.Node, op pyvalue.Op, l, r types.Type) types.Type {
	lu, ru := l.Unwrap(), r.Unwrap()
	lk, rk := numKind(l), numKind(r)
	switch {
	case op.IntOnly():
		if lk > 0 && lk < 3 && rk > 0 && rk < 3 {
			return types.I64
		}
	case op.IsBinary() && lk > 0 && rk > 0:
		// int ** int: non-negative exponents yield int — the normal
		// case the paper establishes by sample tracing. Negative
		// exponents raise to the general path at runtime.
		if op == pyvalue.OpDiv || lk == 3 || rk == 3 {
			return types.F64
		}
		return types.I64
	case op == pyvalue.OpAdd:
		if lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			return types.Str
		}
		if lu.Kind() == types.KindList && ru.Kind() == types.KindList {
			u := types.Unify(lu.Elem(), ru.Elem())
			if u.Kind() == types.KindAny {
				return t.fail(n, "", "list concat with incompatible element types")
			}
			return types.List(u)
		}
		if lu.Kind() == types.KindTuple && ru.Kind() == types.KindTuple {
			return types.Tuple(append(append([]types.Type{}, lu.Elts()...), ru.Elts()...)...)
		}
	case op == pyvalue.OpMul:
		if lu.Kind() == types.KindStr && rk > 0 && rk < 3 || ru.Kind() == types.KindStr && lk > 0 && lk < 3 {
			return types.Str
		}
		if lu.Kind() == types.KindList && rk > 0 && rk < 3 {
			return lu
		}
	case op == pyvalue.OpMod:
		if lu.Kind() == types.KindStr {
			return types.Str // printf-style formatting
		}
	case !op.IsBinary():
		return t.fail(n, "", "unsupported operator %q", op)
	}
	return t.fail(n, "TypeError", "unsupported operand type(s) for %s: %s and %s", op, l, r)
}

func (t *typer) unaryOpType(n pyast.Node, op pyvalue.Op, v types.Type) types.Type {
	switch op {
	case pyvalue.OpNot:
		return types.Bool
	case pyvalue.OpSub, pyvalue.OpAdd:
		switch numKind(v) {
		case 1, 2:
			return types.I64
		case 3:
			return types.F64
		}
		return t.fail(n, "TypeError", "bad operand type for unary %s: %s", op, v)
	case pyvalue.OpInvert:
		if k := numKind(v); k == 1 || k == 2 {
			return types.I64
		}
		return t.fail(n, "TypeError", "bad operand type for unary ~: %s", v)
	default:
		return t.fail(n, "", "unsupported unary operator %q", op)
	}
}

func (t *typer) checkComparable(n pyast.Node, op pyvalue.Op, l, r types.Type) {
	switch {
	case op == pyvalue.OpIn || op == pyvalue.OpNotIn:
		ru := r.Unwrap()
		switch ru.Kind() {
		case types.KindStr:
			if l.Unwrap().Kind() != types.KindStr {
				t.fail(n, "TypeError", "'in <string>' requires string operand, got %s", l)
			}
		case types.KindList, types.KindTuple, types.KindDict:
		default:
			t.fail(n, "TypeError", "argument of type %s is not iterable", r)
		}
	case op.IsOrder():
		lu, ru := l.Unwrap(), r.Unwrap()
		if numKind(l) > 0 && numKind(r) > 0 {
			return
		}
		if lu.Kind() == ru.Kind() {
			switch lu.Kind() {
			case types.KindStr, types.KindList, types.KindTuple:
				return
			}
		}
		t.fail(n, "TypeError", "%q not supported between %s and %s", op, l, r)
	}
	// == != is and is not are always defined.
}

func (t *typer) subscriptType(x *pyast.Subscript, env scope) types.Type {
	cont := t.expr(x.X, env)
	idx := t.expr(x.Index, env)
	cu := cont.Unwrap()
	switch cu.Kind() {
	case types.KindRow:
		sch := cu.Schema()
		if lit, ok := x.Index.(*pyast.StrLit); ok {
			i, found := sch.Lookup(lit.S)
			if !found {
				return t.fail(x, "KeyError", "row has no column %q", lit.S)
			}
			x.RowIdx = i
			return sch.Col(i).Type
		}
		if i, ok := ConstIntIndex(x.Index); ok {
			if i < 0 {
				i += sch.Len()
			}
			if i < 0 || i >= sch.Len() {
				return t.fail(x, "IndexError", "row index out of range")
			}
			x.RowIdx = i
			return sch.Col(i).Type
		}
		return t.fail(x, "", "dynamic row subscript is not compilable")
	}
	switch cu.Kind() {
	case types.KindStr:
		if numKind(idx) == 0 || numKind(idx) == 3 {
			return t.fail(x, "TypeError", "string indices must be integers")
		}
		return types.Str
	case types.KindList:
		if numKind(idx) == 0 || numKind(idx) == 3 {
			return t.fail(x, "TypeError", "list indices must be integers")
		}
		return cu.Elem()
	case types.KindTuple:
		if i, ok := ConstIntIndex(x.Index); ok {
			elts := cu.Elts()
			if i < 0 {
				i += len(elts)
			}
			if i < 0 || i >= len(elts) {
				return t.fail(x, "IndexError", "tuple index out of range")
			}
			return elts[i]
		}
		u := types.UnifyAll(cu.Elts())
		if u.Kind() == types.KindAny {
			return t.fail(x, "", "dynamic index into heterogeneous tuple")
		}
		return u
	case types.KindDict:
		if idx.Unwrap().Kind() != types.KindStr {
			return t.fail(x, "KeyError", "dict key must be str")
		}
		return cu.Elem()
	case types.KindMatch:
		if numKind(idx) == 0 {
			return t.fail(x, "IndexError", "no such group")
		}
		// A group can be absent (None) at runtime; the fast path raises
		// to the general path in that case, so Str is the normal type.
		return types.Str
	case types.KindNull:
		return t.fail(x, "TypeError", "'NoneType' object is not subscriptable")
	default:
		return t.fail(x, "", "cannot subscript %s", cont)
	}
}

func (t *typer) sliceType(x *pyast.Slice, env scope) types.Type {
	cont := t.expr(x.X, env)
	for _, b := range []pyast.Expr{x.Lo, x.Hi, x.Step} {
		if b == nil {
			continue
		}
		bt := t.expr(b, env)
		if k := numKind(bt); k == 0 || k == 3 {
			if bt.Kind() != types.KindNull {
				return t.fail(x, "TypeError", "slice indices must be integers or None")
			}
		}
	}
	cu := cont.Unwrap()
	switch cu.Kind() {
	case types.KindStr, types.KindList, types.KindTuple:
		if cu.Kind() == types.KindTuple {
			u := types.UnifyAll(cu.Elts())
			if u.Kind() == types.KindAny {
				return t.fail(x, "", "slicing heterogeneous tuple")
			}
			return types.List(u)
		}
		return cu
	case types.KindNull:
		return t.fail(x, "TypeError", "'NoneType' object is not subscriptable")
	default:
		return t.fail(x, "", "cannot slice %s", cont)
	}
}
