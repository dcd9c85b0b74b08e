package dataflow

import (
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// refine narrows the environment under the assumption that cond
// evaluated to the given truthiness. Refinements are derived from a
// condition the generated code actually executes, so they are dep-free
// (no guard needed); they meet into existing facts, which keep their
// own deps.
func (a *analyzer) refine(cond pyast.Expr, truthy bool, ev *env) {
	switch cond := cond.(type) {
	case *pyast.Name, *pyast.Subscript:
		a.refineTruth(cond, truthy, ev)
	case *pyast.UnaryOp:
		if cond.Op == pyvalue.OpNot {
			a.refine(cond.X, !truthy, ev)
		}
	case *pyast.BoolOp:
		// `a and b` true ⇒ both true; `a or b` false ⇒ both false.
		if truthy == (cond.Op == pyvalue.OpAnd) {
			for _, x := range cond.Xs {
				a.refine(x, truthy, ev)
			}
		}
	case *pyast.Compare:
		if len(cond.Ops) == 1 {
			a.refineCompare(cond.Ops[0], cond.First, cond.Rest[0], truthy, ev)
		}
	}
}

// refineTruth narrows an lvalue tested directly (`if x:`).
func (a *analyzer) refineTruth(lv pyast.Expr, truthy bool, ev *env) {
	t := exprType(lv)
	if truthy {
		// Truthy excludes None; for exact ints it also excludes 0.
		a.updateLV(lv, ev, func(f Fact) Fact {
			if a.opts.NullFacts {
				f = f.nonNull()
			}
			if exactKind(t, types.KindI64) || exactKind(t, types.KindF64) {
				f.notZero = true
			}
			if exactKind(t, types.KindI64) && f.HasLo && f.Lo == 0 {
				f.Lo = 1
			}
			return f
		})
		return
	}
	// Falsy pins the value for exact scalar types with a single falsy
	// inhabitant. Floats are excluded: -0.0 is falsy but renders
	// differently from 0.0.
	var c pyvalue.Value
	switch {
	case exactKind(t, types.KindI64):
		c = pyvalue.Int(0)
	case exactKind(t, types.KindBool):
		c = pyvalue.Bool(false)
	case exactKind(t, types.KindStr):
		c = pyvalue.Str("")
	default:
		return
	}
	a.updateLV(lv, ev, func(f Fact) Fact { return meet(constFact(c), f) })
}

// refineCompare narrows on a single comparison step.
func (a *analyzer) refineCompare(op pyvalue.Op, le, re pyast.Expr, truthy bool, ev *env) {
	// Negated operators flip the branch sense.
	if op == pyvalue.OpIsNot || op == pyvalue.OpNe {
		op, truthy = op.Negate(), !truthy
	}
	// None tests: `x is None` / `x == None`.
	if op == pyvalue.OpIs || op == pyvalue.OpEq {
		if _, rNone := re.(*pyast.NoneLit); rNone {
			a.refineNone(le, truthy, ev)
			if op == pyvalue.OpIs {
				return
			}
		}
		if _, lNone := le.(*pyast.NoneLit); lNone {
			a.refineNone(re, truthy, ev)
			return
		}
	}
	// Equality against a literal constant pins the value.
	if op == pyvalue.OpEq && truthy {
		if c := litConst(re); c != nil {
			a.updateLV(le, ev, func(f Fact) Fact { return meet(constFact(c), f) })
		}
		if c := litConst(le); c != nil {
			a.updateLV(re, ev, func(f Fact) Fact { return meet(constFact(c), f) })
		}
		return
	}
	// Orderings against integer literals narrow intervals; mirror when
	// the literal is on the left.
	if c, ok := litConst(re).(pyvalue.Int); ok && exactKind(exprType(le), types.KindI64) {
		a.refineOrder(le, op, int64(c), truthy, ev)
	}
	if c, ok := litConst(le).(pyvalue.Int); ok && exactKind(exprType(re), types.KindI64) {
		a.refineOrder(re, op.Mirror(), int64(c), truthy, ev)
	}
}

// refineOrder narrows lv under `lv op c` being truthy/falsy.
func (a *analyzer) refineOrder(lv pyast.Expr, op pyvalue.Op, c int64, truthy bool, ev *env) {
	// Reduce to one of: lv ≤ hi, lv ≥ lo.
	var lo, hi int64
	var hasLo, hasHi bool
	if !truthy {
		op = op.Negate()
	}
	switch op {
	case pyvalue.OpLt:
		if v, ok := subOv(c, 1); ok {
			hi, hasHi = v, true
		}
	case pyvalue.OpLe:
		hi, hasHi = c, true
	case pyvalue.OpGt:
		if v, ok := addOv(c, 1); ok {
			lo, hasLo = v, true
		}
	case pyvalue.OpGe:
		lo, hasLo = c, true
	default:
		return
	}
	if !hasLo && !hasHi {
		return
	}
	ref := Fact{Lo: lo, Hi: hi, HasLo: hasLo, HasHi: hasHi}
	a.updateLV(lv, ev, func(f Fact) Fact { return meet(ref, f) })
}

// refineNone pins the lvalue's nullability (gated on null facts).
func (a *analyzer) refineNone(lv pyast.Expr, isNone bool, ev *env) {
	if !a.opts.NullFacts {
		return
	}
	a.updateLV(lv, ev, func(f Fact) Fact {
		if isNone {
			return meet(constFact(pyvalue.None{}), f)
		}
		return f.nonNull()
	})
}

// updateLV applies fn to the fact of a refinable lvalue: a plain local
// name, or a row-column subscript through a row alias. It is the only
// writer refinement has, and it logs the fact it overwrites to a.undo.
func (a *analyzer) updateLV(lv pyast.Expr, ev *env, fn func(Fact) Fact) {
	switch lv := lv.(type) {
	case *pyast.Name:
		if ev.aliases[lv.Ident] {
			return // the row value itself, not a scalar
		}
		if f, ok := ev.vars[lv.Ident]; ok {
			a.undo = append(a.undo, undoEntry{name: lv.Ident, col: -1, old: f})
			ev.vars[lv.Ident] = fn(f)
		}
	case *pyast.Subscript:
		if xn, ok := lv.X.(*pyast.Name); ok && ev.aliases[xn.Ident] &&
			lv.RowIdx >= 0 && lv.RowIdx < len(ev.row) {
			a.undo = append(a.undo, undoEntry{col: lv.RowIdx, old: ev.row[lv.RowIdx]})
			ev.row[lv.RowIdx] = fn(ev.row[lv.RowIdx])
		}
	}
}

// litConst extracts the constant value of a literal expression (plus
// negated numbers), without touching the environment.
func litConst(e pyast.Expr) pyvalue.Value {
	switch e := e.(type) {
	case *pyast.NumLit:
		if e.IsFloat {
			return pyvalue.Float(e.F)
		}
		return pyvalue.Int(e.I)
	case *pyast.StrLit:
		return pyvalue.Str(e.S)
	case *pyast.BoolLit:
		return pyvalue.Bool(e.B)
	case *pyast.NoneLit:
		return pyvalue.None{}
	case *pyast.UnaryOp:
		if e.Op == pyvalue.OpSub {
			if n, ok := e.X.(*pyast.NumLit); ok {
				if n.IsFloat {
					return pyvalue.Float(-n.F)
				}
				return pyvalue.Int(-n.I)
			}
		}
	}
	return nil
}

// safeNoArgStrMethods never raise when called with no arguments on an
// exact str receiver.
var safeNoArgStrMethods = map[string]bool{
	"upper": true, "lower": true, "strip": true, "lstrip": true,
	"rstrip": true, "capitalize": true, "title": true, "swapcase": true,
}

// callFact models builtin and method calls: a small table of provably
// non-raising calls, everything else conservatively raising.
func (a *analyzer) callFact(e *pyast.Call, ev *env) Fact {
	for _, arg := range e.Args {
		a.expr(arg, ev)
	}
	for _, arg := range e.KwArgs {
		a.expr(arg, ev)
	}
	switch fn := e.Fn.(type) {
	case *pyast.Name:
		switch fn.Ident {
		// Possibly-raising calls return top facts: a fact from a raising
		// expression could fold or prune away the very evaluation that
		// raises.
		case "len":
			var at types.Type
			if len(e.Args) == 1 {
				at = exprType(e.Args[0])
			}
			switch {
			case len(e.Args) != 1:
				a.addRaise(pyvalue.ExcTypeError)
			case exactKind(at, types.KindStr), exactKind(at, types.KindList),
				exactKind(at, types.KindTuple), exactKind(at, types.KindDict),
				at.Kind() == types.KindRow && !at.IsOption():
				// len() of an exact container cannot raise and is ≥ 0.
				return a.nn(Fact{Lo: 0, HasLo: true})
			default:
				a.addRaise(pyvalue.ExcTypeError)
			}
			return Fact{}
		case "str":
			if len(e.Args) == 1 && !inexact(exprType(e.Args[0])) {
				return a.nn(Fact{})
			}
			a.addRaise(pyvalue.ExcTypeError)
			return Fact{}
		case "bool":
			if len(e.Args) == 1 && !inexact(exprType(e.Args[0])) {
				return a.nn(Fact{})
			}
			a.addRaise(pyvalue.ExcTypeError)
			return Fact{}
		case "abs":
			var at types.Type
			if len(e.Args) == 1 {
				at = exprType(e.Args[0])
			}
			if len(e.Args) == 1 && !inexact(at) && at.IsNumeric() {
				return a.nn(Fact{})
			}
			a.addRaise(pyvalue.ExcTypeError)
			return Fact{}
		case "int", "float":
			at := types.Type{}
			if len(e.Args) > 0 {
				at = exprType(e.Args[0])
			}
			if len(e.Args) == 1 && !inexact(at) && at.IsNumeric() {
				return a.nn(Fact{})
			}
			// Parsing strings can fail.
			a.addRaise(pyvalue.ExcValueError)
			a.addRaise(pyvalue.ExcTypeError)
			return Fact{}
		case "range":
			a.addRaise(pyvalue.ExcTypeError)
			return Fact{}
		default:
			a.addRaise(pyvalue.ExcTypeError)
			a.addRaise(pyvalue.ExcValueError)
			a.addRaise(pyvalue.ExcUnsupported)
			return Fact{}
		}
	case *pyast.Attr:
		a.expr(fn.X, ev)
		xt := exprType(fn.X)
		if inexact(xt) {
			a.addRaise(pyvalue.ExcAttributeError)
			a.addRaise(pyvalue.ExcTypeError)
		}
		if exactKind(xt, types.KindStr) && len(e.Args) == 0 && safeNoArgStrMethods[fn.Name] {
			return a.nn(Fact{})
		}
		a.addRaise(pyvalue.ExcTypeError)
		a.addRaise(pyvalue.ExcValueError)
		a.addRaise(pyvalue.ExcAttributeError)
		a.addRaise(pyvalue.ExcIndexError)
		return Fact{}
	default:
		a.expr(e.Fn, ev)
		a.addRaise(pyvalue.ExcUnsupported)
		return Fact{}
	}
}
