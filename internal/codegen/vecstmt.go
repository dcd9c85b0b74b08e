package codegen

// vecstmt.go — statement bodies in vector programs.
//
// The walk executes a def's statements over a live selection, the way it
// evaluates an expression over one. A local is a binding from its name to
// the operand last assigned to it — no copy is made, since registers are
// never reused within a run. `if` splits the live selection, runs each arm
// on its side with its own copy of the bindings and merges what comes
// back: a local the arms left bound to different operands gets a register
// written from each side under that side's selection, which is all a phi
// node is. `return e` evaluates e on the rows that reach it, records them
// as decided and takes them out of the live set; a second return site
// moves the result into a register of its own.
//
// None is an ordinary value of a local bound to an Option column (or to a
// column the sample typed Null): the binding keeps the column's null
// cells unmarked, `if v:` sends them to the false side, `v is None` reads
// them, and `return v` records them as returning None. Any other read of
// the local marks the null rows it sees for replay.
//
// Check mode declines what the selection model cannot express or the row
// closure treats specially: loops and comprehensions, tuple and subscript
// assignment targets, assigned parameters, a local whose kind differs
// between the arms of an `if` or which one arm leaves bound to an Option
// column (a phi register has no null bitmap), a read of a local some path
// leaves unassigned (the closure raises NameError there), rows falling off
// the end of a body whose return type is not an Option, and any statement
// inference marked failed.

import (
	"fmt"
	"slices"
	"strings"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// assignedLocals lists the names the body assigns, in first-assignment
// order; ok is false when an assignment target is not a plain name.
func assignedLocals(body []pyast.Stmt) (names []string, ok bool) {
	ok = true
	pyast.InspectStmts(body, func(n pyast.Node) bool {
		var target pyast.Expr
		switch n := n.(type) {
		case *pyast.Assign:
			target = n.Target
		case *pyast.AugAssign:
			target = n.Target
		default:
			return true
		}
		if nm, isName := target.(*pyast.Name); !isName {
			ok = false
		} else if !slices.Contains(names, nm.Ident) {
			names = append(names, nm.Ident)
		}
		return true
	})
	return names, ok
}

// local returns name's index among the body's locals, or -1.
func (e *vecEnv) local(name string) int { return slices.Index(e.locals, name) }

// binds reports whether name is a parameter or a local of the UDF — and
// therefore not the module or builtin of that name.
func (e *vecEnv) binds(name string) bool {
	return e.local(name) >= 0 || slices.Contains(e.info.Fn.Params, name)
}

// body runs the statements over sel. On return w.res holds the value of
// the rows in w.resRows (ascending), and the state's null list the rows
// that returned None — possibly every row, leaving the result empty.
func (w *vecWalk) body(ss []pyast.Stmt, sel []int32) bool {
	n := len(w.env.locals)
	if w.run() {
		st := w.st
		st.loc = slices.Grow(st.loc[:0], n)[:n]
		clear(st.loc)
		w.loc, w.saved = st.loc, st.saved[:0]
	} else {
		w.loc = make([]vecOperand, n)
	}
	rest, returned, ok := w.block(ss, sel)
	if w.run() {
		w.st.saved = w.saved[:0]
	}
	if !ok {
		return false
	}
	if !returned && !w.retNull(nil, rest) {
		return false
	}
	if w.nret == 0 {
		// Every row returned None (a body that is not nullable cannot).
		w.res, w.resRows = vecOperand{kind: w.kind}, nil
	}
	return true
}

// block runs ss over live and returns the rows still live after it;
// returned means every path through ss ended in a return, a fact of the
// source alone.
func (w *vecWalk) block(ss []pyast.Stmt, live []int32) (rest []int32, returned, ok bool) {
	for _, s := range ss {
		if !w.usable(s) {
			w.decline(nodeLabel(s) + " failed typing")
			return nil, false, false
		}
		switch s := s.(type) {
		case *pyast.Pass:
		case *pyast.Assign:
			if !w.assign(s.Target, s.Value, pyvalue.OpNone, 0, live) {
				return nil, false, false
			}
		case *pyast.AugAssign:
			if !w.assign(s.Target, s.Value, s.Op, s.Ty.Kind(), live) {
				return nil, false, false
			}
		case *pyast.Return:
			return nil, true, w.ret(s.X, live)
		case *pyast.If:
			if live, returned, ok = w.ifStmt(s, live); !ok || returned {
				return nil, returned, ok
			}
		default:
			w.decline(nodeLabel(s))
			return nil, false, false
		}
	}
	return live, false, true
}

// assign binds the target local to the value's operand; with op set it is
// the augmented `target op= value`, whose result has kind resK.
func (w *vecWalk) assign(target, value pyast.Expr, op pyvalue.Op, resK types.Kind, live []int32) bool {
	nm, ok := target.(*pyast.Name)
	if !ok {
		w.decline(nodeLabel(target) + " assignment target")
		return false
	}
	i := w.env.local(nm.Ident)
	if i < 0 || slices.Contains(w.env.info.Fn.Params, nm.Ident) {
		w.decline("parameter " + nm.Ident + " assigned")
		return false
	}
	var a vecOperand
	if op == pyvalue.OpNone {
		a, ok = w.optValue(value, live)
	} else {
		a, ok = w.binary(target, op, target, value, resK, live)
	}
	if !ok {
		return false
	}
	w.loc[i] = a
	return true
}

// ifStmt splits live on the condition, runs each arm on its side and
// merges the surviving rows and the bindings.
func (w *vecWalk) ifStmt(s *pyast.If, live []int32) (rest []int32, returned, ok bool) {
	switch w.env.info.Dead[s] {
	case inference.DeadThen:
		return w.block(s.Else, live)
	case inference.DeadElse:
		return w.block(s.Then, live)
	}
	t, f, ok := w.split(s.Cond, live)
	if !ok {
		return nil, false, false
	}
	// saved[base:base+n] holds the bindings at entry while the then-arm
	// runs, and the then-arm's bindings while the else-arm runs.
	n, base := len(w.loc), len(w.saved)
	w.saved = append(w.saved, w.loc...)
	tRest, tRet, ok := w.block(s.Then, t)
	if !ok {
		return nil, false, false
	}
	for i := range w.loc {
		w.saved[base+i], w.loc[i] = w.loc[i], w.saved[base+i]
	}
	fRest, fRet, ok := w.block(s.Else, f)
	if !ok {
		return nil, false, false
	}
	rest, returned, ok = w.merge(w.saved[base:base+n], tRest, fRest, tRet, fRet)
	w.saved = w.saved[:base]
	return rest, returned, ok
}

// merge joins the two arms of an `if`: then holds the then-arm's bindings
// and w.loc the else-arm's, tRest and fRest the rows each arm left live.
func (w *vecWalk) merge(then []vecOperand, tRest, fRest []int32, tRet, fRet bool) (rest []int32, returned, ok bool) {
	switch {
	case tRet && fRet:
		return nil, true, true
	case tRet:
		return fRest, false, true
	case fRet:
		copy(w.loc, then)
		return tRest, false, true
	}
	for i, a := range then {
		b := w.loc[i]
		switch {
		case a == b:
		case a.kind == 0 || b.kind == 0:
			// Assigned on one side only: a later read would raise
			// NameError on the other side's rows; value declines it.
			w.loc[i] = vecOperand{}
		case a.kind != b.kind:
			w.decline("local " + w.env.locals[i] + " type-unstable")
			return nil, false, false
		case a.opt || b.opt:
			w.decline("local " + w.env.locals[i] + " Option-bound on one arm")
			return nil, false, false
		default:
			phi := w.reg(a.kind)
			if w.run() {
				w.store(phi, a, tRest)
				w.store(phi, b, fRest)
			}
			w.loc[i] = phi
		}
	}
	rest = w.buf()
	if w.run() {
		rest = rest[:MergeSel(tRest, fRest, rest)]
	}
	return rest, false, true
}

// ret handles `return x` for the rows in live. A None — bare, literal, a
// column the sample typed Null, the null cell of an Option column or of a
// local bound to one, or the arm of a conditional at the root of x — goes
// to the null list; anything else must have the program's kind.
func (w *vecWalk) ret(x pyast.Expr, live []int32) bool {
	if x == nil {
		return w.retNull(nil, live)
	}
	if !w.usable(x) {
		w.no(x)
		return false
	}
	if e, ok := x.(*pyast.IfExpr); ok && e.Type().IsOption() {
		then, els := w.liveArms(e)
		if !then {
			return w.ret(e.Else, live)
		}
		if !els {
			return w.ret(e.Then, live)
		}
		t, f, ok := w.split(e.Cond, live)
		return ok && w.ret(e.Then, t) && w.ret(e.Else, f)
	}
	a, ok := w.optValue(x, live)
	switch {
	case !ok:
		return false
	case a.kind == types.KindNull:
		return w.retNull(x, live)
	case a.opt && w.nullable:
		none, in := w.buf(), w.present(a, live)
		if w.run() {
			none = none[:SubtractSel(live, in, none)]
		}
		w.retNull(x, none)
		a.opt, live = false, in
	case a.opt:
		a = w.settle(a, live)
	}
	if a.kind != w.kind {
		w.decline("return of another kind")
		return false
	}
	w.emit(a, live)
	return true
}

// retNull records rows as returning None.
func (w *vecWalk) retNull(x pyast.Expr, rows []int32) bool {
	if !w.nullable {
		if x == nil {
			w.decline("falls off the end")
		} else {
			w.no(x)
		}
		return false
	}
	if w.run() {
		w.st.nulls = append(w.st.nulls, rows...)
	}
	return true
}

// emit records a as the result of rows. The first return site's operand
// is the result as it stands; a second site moves it into a register that
// every later site writes too.
func (w *vecWalk) emit(a vecOperand, rows []int32) {
	w.nret++
	if w.nret == 1 {
		w.res, w.resRows = a, rows
		return
	}
	if w.nret == 2 {
		first := w.res
		w.res = w.reg(w.kind)
		if w.run() {
			w.store(w.res, first, w.resRows)
		}
	}
	union := w.buf()
	if w.run() {
		w.store(w.res, a, rows)
		w.resRows = union[:MergeSel(w.resRows, rows, union)]
	}
}

// reg takes a fresh register of kind k.
func (w *vecWalk) reg(k types.Kind) vecOperand {
	o := vecOperand{kind: k, src: srcReg}
	switch k {
	case types.KindI64:
		o.idx = w.regI()
	case types.KindF64:
		o.idx = w.regF()
	case types.KindBool:
		o.idx = w.regB()
	default:
		w.prog.nStr++
		o.idx = w.prog.nStr - 1
	}
	return o
}

// store writes operand a into register reg (of a's kind) at sel.
func (w *vecWalk) store(reg, a vecOperand, sel []int32) {
	st := w.st
	switch a.kind {
	case types.KindI64:
		moveInto(st.i[reg.idx], st.i64s(&a), a.ci, sel)
	case types.KindF64:
		moveInto(st.f[reg.idx], st.f64s(&a), a.cf, sel)
	case types.KindBool:
		moveInto(st.b[reg.idx], st.bools(&a), a.cb, sel)
	default:
		vecStrCopy(st.str[reg.idx], st.strs(&a), sel)
	}
}

// nodeLabel names a node for UDF.VecDecline: its syntactic class, plus the
// callee, operator or identifier that tells two nodes of a class apart.
func nodeLabel(n pyast.Node) string {
	switch n := n.(type) {
	case *pyast.Call:
		switch fn := n.Fn.(type) {
		case *pyast.Name:
			return "Call:" + fn.Ident
		case *pyast.Attr:
			if mod, ok := fn.X.(*pyast.Name); ok && isModuleIdent(mod.Ident) {
				return "Call:" + mod.Ident + "." + fn.Name
			}
			return "Call:." + fn.Name
		}
		return "Call"
	case *pyast.Name:
		return "Name:" + n.Ident
	case *pyast.BinOp:
		return "BinOp:" + n.Op.String()
	case *pyast.UnaryOp:
		return "UnaryOp:" + n.Op.String()
	case *pyast.Compare:
		return "Compare:" + n.Ops[0].String()
	case *pyast.BoolOp:
		return "BoolOp:" + n.Op.String()
	case *pyast.Attr:
		return "Attr:" + n.Name
	}
	// Every other node is told apart by its type alone: *pyast.For is "For".
	return strings.TrimPrefix(fmt.Sprintf("%T", n), "*pyast.")
}
