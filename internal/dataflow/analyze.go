package dataflow

import (
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// env is the per-path abstract state.
type env struct {
	// vars maps every bound local (params included) to its fact.
	vars map[string]Fact
	// row holds per-column facts for the row parameter.
	row []Fact
	// aliases names the variables currently bound to the row parameter
	// value itself.
	aliases map[string]bool
	// maybeUnset marks locals bound on some but not all paths (reading
	// one can raise NameError at runtime).
	maybeUnset map[string]bool
}

func (e *env) clone() *env {
	c := &env{
		vars:       make(map[string]Fact, len(e.vars)),
		aliases:    make(map[string]bool, len(e.aliases)),
		maybeUnset: make(map[string]bool, len(e.maybeUnset)),
	}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	if e.row != nil {
		c.row = append([]Fact(nil), e.row...)
	}
	for k := range e.aliases {
		c.aliases[k] = true
	}
	for k := range e.maybeUnset {
		c.maybeUnset[k] = true
	}
	return c
}

// merge joins two branch environments into e.
func (e *env) merge(a, b *env) {
	vars := make(map[string]Fact, len(a.vars))
	for k, va := range a.vars {
		if vb, ok := b.vars[k]; ok {
			vars[k] = join(va, vb)
		} else {
			vars[k] = va
			e.maybeUnset[k] = true
		}
	}
	for k, vb := range b.vars {
		if _, ok := a.vars[k]; !ok {
			vars[k] = vb
			e.maybeUnset[k] = true
		}
	}
	e.vars = vars
	for i := range e.row {
		e.row[i] = join(a.row[i], b.row[i])
	}
	aliases := map[string]bool{}
	for k := range a.aliases {
		if b.aliases[k] {
			aliases[k] = true
		}
	}
	e.aliases = aliases
	for k := range a.maybeUnset {
		e.maybeUnset[k] = true
	}
	for k := range b.maybeUnset {
		e.maybeUnset[k] = true
	}
}

type analyzer struct {
	info *inference.Info
	opts Options
	res  *Result
	// undo records what refinement overwrote, newest last, so an
	// expression-level branch can refine in place and roll back.
	undo []undoEntry
}

// undoEntry is one overwritten fact: ev.row[col] when col >= 0, else
// ev.vars[name].
type undoEntry struct {
	name string
	col  int
	old  Fact
}

// rollback restores ev to its state when the undo log was mark long.
func (a *analyzer) rollback(ev *env, mark int) {
	for i := len(a.undo) - 1; i >= mark; i-- {
		u := &a.undo[i]
		if u.col >= 0 {
			ev.row[u.col] = u.old
		} else {
			ev.vars[u.name] = u.old
		}
	}
	a.undo = a.undo[:mark]
}

func (a *analyzer) run() {
	fn := a.info.Fn
	ev := &env{vars: map[string]Fact{}, aliases: map[string]bool{}, maybeUnset: map[string]bool{}}
	rowParam := len(fn.Params) == 1 && a.info.ParamTypes[0].Kind() == types.KindRow
	if rowParam {
		cols := a.info.ParamTypes[0].Schema().Columns()
		ev.row = make([]Fact, len(cols))
		for i := range cols {
			ev.row[i] = a.seedCol(i, cols[i].Type)
		}
		ev.aliases[fn.Params[0]] = true
		ev.vars[fn.Params[0]] = a.nn(Fact{})
	} else {
		for i, p := range fn.Params {
			f := factFromType(a.info.ParamTypes[i], a.opts.NullFacts)
			if len(fn.Params) == 1 && len(a.opts.Columns) == 1 {
				f = a.seedCol(0, a.info.ParamTypes[0])
			}
			ev.vars[p] = f
		}
	}
	a.stmts(fn.Body, ev)
}

// seedCol builds the initial fact for input column i: dep-free type
// facts plus dep-carrying sampled value statistics.
func (a *analyzer) seedCol(i int, t types.Type) Fact {
	f := factFromType(t, a.opts.NullFacts)
	if i >= len(a.opts.Columns) || i >= maxDepCols {
		return f
	}
	cf := a.opts.Columns[i]
	dep := uint64(1) << uint(i)
	if cf.Const != nil && matchesType(cf.Const, t) {
		f.Const = cf.Const
		f.deps |= dep
		if iv, ok := cf.Const.(pyvalue.Int); ok {
			f.Lo, f.Hi, f.HasLo, f.HasHi = int64(iv), int64(iv), true, true
		}
		return f
	}
	if cf.HasRange && t.Kind() == types.KindI64 {
		f.Lo, f.Hi, f.HasLo, f.HasHi = cf.Lo, cf.Hi, true, true
		f.deps |= dep
	}
	return f
}

// nn applies the never-None component when null facts are enabled.
func (a *analyzer) nn(f Fact) Fact {
	if a.opts.NullFacts && f.Null == NullUnknown {
		f.Null = NullNever
	}
	return f
}

func (a *analyzer) addRaise(k pyvalue.ExcKind) {
	if k != pyvalue.ExcOK {
		a.res.canRaise |= 1 << k
	}
}

// failed reports n's inference failure, if inference recorded one.
func (a *analyzer) failed(n pyast.Node) (inference.Failure, bool) {
	if len(a.info.Failed) == 0 {
		return inference.Failure{}, false
	}
	f, ok := a.info.Failed[n]
	return f, ok
}

func (a *analyzer) markDead(n pyast.Node, d deadInfo) {
	if a.res.dead == nil {
		a.res.dead = map[pyast.Node]deadInfo{}
	}
	a.res.dead[n] = d
}

func (a *analyzer) lint(pos pyast.Pos, code, msg string) {
	a.res.lints = append(a.res.lints, Lint{Pos: pos, Code: code, Msg: msg})
}

// record stores a non-top fact for codegen queries.
func (a *analyzer) record(e pyast.Expr, f Fact) Fact {
	if f.isTop() {
		return f
	}
	if n := a.res.slot(e); n > 0 {
		a.res.facts[n] = f
	}
	return f
}

// recordRaise marks e as always raising k.
func (a *analyzer) recordRaise(e pyast.Expr, k pyvalue.ExcKind) {
	r := a.res
	n := r.slot(e)
	if n == 0 {
		return
	}
	if r.raises == nil {
		r.raises = make([]pyvalue.ExcKind, len(r.facts))
	}
	r.raises[n] = k
}

// ---- statements ----

// stmts analyzes a statement list, returning whether its end is
// unreachable (every path returned, broke or raised).
func (a *analyzer) stmts(ss []pyast.Stmt, ev *env) bool {
	terminated, warned := false, false
	for _, s := range ss {
		if terminated {
			if !warned {
				a.lint(s.Pos(), "unreachable", "unreachable code")
				warned = true
			}
			// Keep analyzing for further lints, but on a scratch env.
			ev = ev.clone()
			terminated = false
		}
		terminated = a.stmt(s, ev)
	}
	return terminated
}

func (a *analyzer) stmt(s pyast.Stmt, ev *env) bool {
	if f, ok := a.failed(s); ok {
		a.addRaise(pyvalue.ExcNamed(f.Raises))
		return true
	}
	switch s := s.(type) {
	case *pyast.ExprStmt:
		a.expr(s.X, ev)
		return false
	case *pyast.Assign:
		v := a.expr(s.Value, ev)
		a.assign(s.Target, s.Value, v, ev)
		return false
	case *pyast.AugAssign:
		cur := a.expr(s.Target, ev)
		rhs := a.expr(s.Value, ev)
		res := a.binFact(s.Target, s.Op, cur, rhs, s.Target, s.Value, s.Ty)
		a.assign(s.Target, nil, res, ev)
		return false
	case *pyast.Return:
		if s.X != nil {
			a.expr(s.X, ev)
		}
		return true
	case *pyast.If:
		return a.ifStmt(s, ev)
	case *pyast.For:
		a.expr(s.Iter, ev)
		a.addRaise(pyvalue.ExcUnsupported) // loop-iteration cap
		varWasBound := false
		if n, ok := s.Var.(*pyast.Name); ok {
			_, varWasBound = ev.vars[n.Ident]
		}
		a.killAssigned(s.Body, ev, s.Var)
		// The body runs zero or more times and the loop exits at the
		// header, so no refinement made inside it is sound afterwards:
		// analyze the body on a scratch env (lints, raise collection)
		// and keep the killed pre-state.
		a.stmts(s.Body, ev.clone())
		// After a zero-iteration loop the loop variable stays unset.
		if n, ok := s.Var.(*pyast.Name); ok && !varWasBound {
			ev.maybeUnset[n.Ident] = true
		}
		return false
	case *pyast.While:
		a.addRaise(pyvalue.ExcUnsupported) // loop-iteration cap
		a.killAssigned(s.Body, ev, nil)
		a.condRaises(s.Cond, ev)
		// As with For: body refinements must not leak past the loop.
		a.stmts(s.Body, ev.clone())
		return false
	case *pyast.Break, *pyast.Continue:
		return true
	default:
		return false
	}
}

// condRaises evaluates a condition purely for its raise sites and
// facts; used for loop conditions where refinement is unsound.
func (a *analyzer) condRaises(e pyast.Expr, ev *env) {
	a.expr(e, ev)
}

func (a *analyzer) assign(target pyast.Expr, value pyast.Expr, v Fact, ev *env) {
	switch target := target.(type) {
	case *pyast.Name:
		ev.vars[target.Ident] = v
		delete(ev.maybeUnset, target.Ident)
		// Track row aliasing: `y = x` makes y an alias of the row.
		if vn, ok := value.(*pyast.Name); ok && ev.aliases[vn.Ident] {
			ev.aliases[target.Ident] = true
		} else {
			delete(ev.aliases, target.Ident)
		}
	case *pyast.Subscript:
		a.expr(target.X, ev)
		a.expr(target.Index, ev)
		// Item assignment: if the container may be the row parameter,
		// all column facts are stale.
		if xn, ok := target.X.(*pyast.Name); ok && ev.aliases[xn.Ident] {
			for i := range ev.row {
				ev.row[i] = Fact{}
			}
		}
	case *pyast.TupleLit:
		for _, el := range target.Elts {
			if n, ok := el.(*pyast.Name); ok {
				ev.vars[n.Ident] = Fact{}
				delete(ev.maybeUnset, n.Ident)
				delete(ev.aliases, n.Ident)
			}
		}
	}
}

// killAssigned conservatively clears facts for everything a loop body
// may rebind (the body runs zero or more times, so no per-iteration
// fact survives).
func (a *analyzer) killAssigned(body []pyast.Stmt, ev *env, loopVar pyast.Expr) {
	kill := func(name string) {
		if _, bound := ev.vars[name]; !bound {
			ev.maybeUnset[name] = true
		}
		ev.vars[name] = Fact{}
		delete(ev.aliases, name)
	}
	killTarget := func(t pyast.Expr) {
		switch t := t.(type) {
		case *pyast.Name:
			kill(t.Ident)
		case *pyast.TupleLit:
			for _, e := range t.Elts {
				if n, ok := e.(*pyast.Name); ok {
					kill(n.Ident)
				}
			}
		case *pyast.Subscript:
			if xn, ok := t.X.(*pyast.Name); ok && ev.aliases[xn.Ident] {
				for i := range ev.row {
					ev.row[i] = Fact{}
				}
			}
		}
	}
	if loopVar != nil {
		killTarget(loopVar)
		// The loop variable is bound by the loop header itself on every
		// iteration; only after a zero-iteration loop is it unset, and
		// the body (which is what we analyze here) always sees it bound.
		if n, ok := loopVar.(*pyast.Name); ok {
			delete(ev.maybeUnset, n.Ident)
		}
	}
	pyast.InspectStmts(body, func(n pyast.Node) bool {
		switch n := n.(type) {
		case *pyast.Assign:
			killTarget(n.Target)
		case *pyast.AugAssign:
			killTarget(n.Target)
		case *pyast.For:
			killTarget(n.Var)
		case *pyast.ListComp:
			kill(n.Var)
		}
		return true
	})
}

func (a *analyzer) ifStmt(s *pyast.If, ev *env) bool {
	cf := a.expr(s.Cond, ev)
	lintConstCond(a, s.Cond)
	if t, ok := cf.truth(); ok {
		if _, already := a.info.Dead[s]; !already {
			arm := inference.DeadThen
			if t {
				arm = inference.DeadElse
			}
			a.markDead(s, deadInfo{arm: arm, deps: cf.deps})
		}
		// Analyze the dead arm on a scratch env (lints, conservative
		// raise collection), then continue with the live arm's env.
		if t {
			a.stmts(s.Else, ev.clone())
			return a.stmts(s.Then, ev)
		}
		a.stmts(s.Then, ev.clone())
		return a.stmts(s.Else, ev)
	}
	thenEnv, elseEnv := ev.clone(), ev.clone()
	mark := len(a.undo)
	a.refine(s.Cond, true, thenEnv)
	a.refine(s.Cond, false, elseEnv)
	// The clones are the branches' own state: nothing to roll back.
	a.undo = a.undo[:mark]
	tTerm := a.stmts(s.Then, thenEnv)
	eTerm := false
	if len(s.Else) > 0 {
		eTerm = a.stmts(s.Else, elseEnv)
	}
	switch {
	case tTerm && eTerm:
		return true
	case tTerm:
		*ev = *elseEnv
	case eTerm:
		*ev = *thenEnv
	default:
		ev.merge(thenEnv, elseEnv)
	}
	return false
}

// lintConstCond reports literally-constant conditions (a user bug, as
// opposed to fact-derived constancy, which is the specializer working).
func lintConstCond(a *analyzer, cond pyast.Expr) {
	if t, ok := litTruth(cond); ok {
		which := "false"
		if t {
			which = "true"
		}
		a.lint(cond.Pos(), "constant-condition", "condition is always "+which)
	}
}

// litTruth folds the truthiness of purely-literal conditions.
func litTruth(e pyast.Expr) (bool, bool) {
	switch e := e.(type) {
	case *pyast.BoolLit:
		return e.B, true
	case *pyast.NoneLit:
		return false, true
	case *pyast.NumLit:
		if e.IsFloat {
			return e.F != 0, true
		}
		return e.I != 0, true
	case *pyast.StrLit:
		return e.S != "", true
	case *pyast.UnaryOp:
		if e.Op == pyvalue.OpNot {
			if t, ok := litTruth(e.X); ok {
				return !t, true
			}
		}
	case *pyast.BoolOp:
		all := true
		for _, x := range e.Xs {
			t, ok := litTruth(x)
			if !ok {
				return false, false
			}
			if t == (e.Op == pyvalue.OpOr) {
				return t, true
			}
			all = t
		}
		return all, true
	}
	return false, false
}

// ---- expressions ----

func exprType(e pyast.Expr) types.Type {
	if e == nil {
		return types.Type{}
	}
	return e.Type()
}

func (a *analyzer) expr(e pyast.Expr, ev *env) Fact {
	if e == nil {
		return Fact{}
	}
	if f, ok := a.failed(e); ok {
		a.addRaise(pyvalue.ExcNamed(f.Raises))
		return Fact{}
	}
	switch e := e.(type) {
	case *pyast.NumLit:
		if e.IsFloat {
			return a.record(e, constFact(pyvalue.Float(e.F)))
		}
		return a.record(e, constFact(pyvalue.Int(e.I)))
	case *pyast.StrLit:
		return a.record(e, constFact(pyvalue.Str(e.S)))
	case *pyast.BoolLit:
		return a.record(e, constFact(pyvalue.Bool(e.B)))
	case *pyast.NoneLit:
		return a.record(e, constFact(pyvalue.None{}))
	case *pyast.Name:
		return a.record(e, a.nameFact(e, ev))
	case *pyast.BinOp:
		l := a.expr(e.Left, ev)
		r := a.expr(e.Right, ev)
		return a.record(e, a.binFact(e, e.Op, l, r, e.Left, e.Right, e.Type()))
	case *pyast.UnaryOp:
		return a.record(e, a.unaryFact(e, ev))
	case *pyast.BoolOp:
		return a.record(e, a.boolOpFact(e, ev))
	case *pyast.Compare:
		return a.record(e, a.compareFact(e, ev))
	case *pyast.IfExpr:
		return a.record(e, a.ifExprFact(e, ev))
	case *pyast.Subscript:
		return a.record(e, a.subscriptFact(e, ev))
	case *pyast.Slice:
		return a.record(e, a.sliceFact(e, ev))
	case *pyast.Call:
		return a.record(e, a.callFact(e, ev))
	case *pyast.Attr:
		a.expr(e.X, ev)
		return Fact{}
	case *pyast.TupleLit:
		for _, el := range e.Elts {
			a.expr(el, ev)
		}
		return a.record(e, a.nn(Fact{}))
	case *pyast.ListLit:
		for _, el := range e.Elts {
			a.expr(el, ev)
		}
		return a.record(e, a.nn(Fact{}))
	case *pyast.DictLit:
		for i := range e.Keys {
			a.expr(e.Keys[i], ev)
			a.expr(e.Vals[i], ev)
		}
		return a.record(e, a.nn(Fact{}))
	case *pyast.ListComp:
		a.expr(e.Iter, ev)
		a.addRaise(pyvalue.ExcUnsupported) // loop-iteration cap
		inner := ev.clone()
		inner.vars[e.Var] = Fact{}
		delete(inner.aliases, e.Var)
		delete(inner.maybeUnset, e.Var)
		if e.Cond != nil {
			a.expr(e.Cond, inner)
		}
		a.expr(e.Elt, inner)
		return a.record(e, a.nn(Fact{}))
	default:
		return Fact{}
	}
}

func (a *analyzer) nameFact(e *pyast.Name, ev *env) Fact {
	if f, ok := ev.vars[e.Ident]; ok {
		if ev.maybeUnset[e.Ident] {
			// Reading a conditionally-bound name can raise NameError at
			// runtime; its fact must not drive folding or pruning, or the
			// compiled code would skip the raising read entirely.
			a.addRaise(pyvalue.ExcNameError)
			return Fact{}
		}
		return f
	}
	if v, ok := a.opts.Globals[e.Ident]; ok && v != nil {
		switch v.(type) {
		case pyvalue.Bool, pyvalue.Int, pyvalue.Float, pyvalue.Str:
			return constFact(v)
		case pyvalue.None:
			return constFact(v)
		}
		return a.nn(Fact{})
	}
	if _, ok := a.info.Globals[e.Ident]; ok {
		return Fact{}
	}
	a.addRaise(pyvalue.ExcNameError)
	return Fact{}
}

// exactKind reports whether t is a plain (non-Option, non-Any) type of
// the given kind, i.e. codegen's fast accessors apply without checks.
func exactKind(t types.Type, k types.Kind) bool {
	return !t.IsOption() && t.Kind() == k
}

func inexact(t types.Type) bool {
	return t.IsOption() || t.Kind() == types.KindAny || t.Kind() == types.KindInvalid
}

func (a *analyzer) binFact(node pyast.Expr, op pyvalue.Op, l, r Fact, le, re pyast.Expr, resT types.Type) Fact {
	lt, rt := exprType(le), exprType(re)
	deps := l.deps | r.deps
	// Constant folding: both operands known → apply the real operator.
	if l.Const != nil && r.Const != nil {
		v, err := pyvalue.Binary(op, l.Const, r.Const)
		if err != nil {
			k := pyvalue.KindOf(err)
			a.addRaise(k)
			if deps == 0 && node != nil && k == pyvalue.ExcZeroDivisionError {
				// A dep-free always-raise: every normal-case row raises
				// here, so codegen may compile the expression to an
				// exception exit (and the lint surface reports it).
				a.recordRaise(node, k)
				a.lint(node.Pos(), "always-raises",
					"expression always raises "+k.String())
			}
			return Fact{}
		}
		if isScalar(v) {
			return constFact(v).withDeps(deps)
		}
		return a.nn(Fact{deps: deps})
	}
	// Operand-check raise sites (mirrors codegen's slotI64/slotF64/slotStr).
	if inexact(lt) || inexact(rt) {
		a.addRaise(pyvalue.ExcTypeError)
	}
	switch {
	case op.Divides():
		// Only a dep-free proof removes the raise site: a sample-seeded
		// non-zero divisor holds solely for rows passing the guard, and
		// CanRaise must describe the unguarded normal path too.
		if !(r.nonZero() && r.deps == 0) {
			a.addRaise(pyvalue.ExcZeroDivisionError)
		}
		if op == pyvalue.OpMod && lt.Kind() == types.KindStr {
			// String formatting can reject the format spec / operands.
			a.addRaise(pyvalue.ExcTypeError)
			a.addRaise(pyvalue.ExcValueError)
		}
	case op == pyvalue.OpPow:
		if exactKind(resT, types.KindI64) && !r.nonNegative() {
			// Negative integer exponents are outside the specialized
			// int arm.
			a.addRaise(pyvalue.ExcUnsupported)
		}
	}
	out := Fact{deps: deps}
	if resT.Kind() == types.KindI64 && !resT.IsOption() {
		switch op {
		case pyvalue.OpAdd:
			out.Lo, out.Hi, out.HasLo, out.HasHi = intervalAdd(l, r)
		case pyvalue.OpSub:
			out.Lo, out.Hi, out.HasLo, out.HasHi = intervalSub(l, r)
		case pyvalue.OpMul:
			out.Lo, out.Hi, out.HasLo, out.HasHi = intervalMul(l, r)
		case pyvalue.OpMod:
			// Python modulo with a constant positive modulus m yields a
			// result in [0, m-1] regardless of the dividend's sign.
			if m, ok := r.Const.(pyvalue.Int); ok && int64(m) > 0 {
				out.Lo, out.Hi, out.HasLo, out.HasHi = 0, int64(m)-1, true, true
			}
		}
	}
	out = a.nn(out)
	if out.isTop() {
		out.deps = 0
	}
	return out
}

func isScalar(v pyvalue.Value) bool {
	switch v.(type) {
	case pyvalue.None, pyvalue.Bool, pyvalue.Int, pyvalue.Float, pyvalue.Str:
		return true
	}
	return false
}

func (a *analyzer) unaryFact(e *pyast.UnaryOp, ev *env) Fact {
	x := a.expr(e.X, ev)
	xt := exprType(e.X)
	switch {
	case e.Op == pyvalue.OpNot:
		if t, ok := x.truth(); ok {
			return constFact(pyvalue.Bool(!t)).withDeps(x.deps)
		}
		return a.nn(Fact{})
	case x.Const != nil:
		if v, err := pyvalue.Unary(e.Op, x.Const); err == nil && isScalar(v) {
			return constFact(v).withDeps(x.deps)
		}
		a.addRaise(pyvalue.ExcTypeError)
		return Fact{}
	case e.Op == pyvalue.OpInvert:
		if inexact(xt) {
			a.addRaise(pyvalue.ExcTypeError)
		}
		return a.nn(Fact{})
	}
	if inexact(xt) || !xt.IsNumeric() {
		a.addRaise(pyvalue.ExcTypeError)
	}
	if e.Op == pyvalue.OpAdd {
		return x
	}
	out := Fact{deps: x.deps}
	if exactKind(exprType(e), types.KindI64) {
		lo, hi, hasLo, hasHi := x.interval()
		if hasHi {
			if v, ok := subOv(0, hi); ok {
				out.Lo, out.HasLo = v, true
			}
		}
		if hasLo {
			if v, ok := subOv(0, lo); ok {
				out.Hi, out.HasHi = v, true
			}
		}
	}
	out = a.nn(out)
	if out.isTop() {
		out.deps = 0
	}
	return out
}

func (a *analyzer) boolOpFact(e *pyast.BoolOp, ev *env) Fact {
	// and/or return operand values; fold when every prefix truth is
	// known, else join all operand facts (the result is one of them).
	facts := make([]Fact, len(e.Xs))
	for i, x := range e.Xs {
		facts[i] = a.expr(x, ev)
	}
	var deps uint64
	result := facts[0]
	decided := true
	for i := 0; i < len(facts); i++ {
		result = facts[i]
		t, ok := facts[i].truth()
		if !ok {
			decided = false
			break
		}
		deps |= facts[i].deps
		if t == (e.Op == pyvalue.OpOr) {
			break
		}
	}
	if decided {
		return result.withDeps(deps)
	}
	out := facts[0]
	for _, f := range facts[1:] {
		out = join(out, f)
	}
	return out
}

func (a *analyzer) compareFact(e *pyast.Compare, ev *env) Fact {
	first := a.expr(e.First, ev)
	if len(e.Ops) == 1 {
		second := a.expr(e.Rest[0], ev)
		if t, deps, ok := a.compareStepFact(e.Ops[0], first, second, e.First, e.Rest[0]); ok {
			return constFact(pyvalue.Bool(t)).withDeps(deps)
		}
		return a.nn(Fact{})
	}
	rest := make([]Fact, len(e.Rest))
	for i, x := range e.Rest {
		rest[i] = a.expr(x, ev)
	}
	// Chained comparisons: decide only if every step decides.
	all := true
	res := true
	var deps uint64
	l, le := first, pyast.Expr(e.First)
	for i, op := range e.Ops {
		t, d, ok := a.compareStepFact(op, l, rest[i], le, e.Rest[i])
		if !ok {
			all = false
			break
		}
		deps |= d
		res = res && t
		if !res {
			break
		}
		l, le = rest[i], e.Rest[i]
	}
	if all {
		return constFact(pyvalue.Bool(res)).withDeps(deps)
	}
	return a.nn(Fact{})
}

// compareStepFact decides one comparison step when the facts allow.
func (a *analyzer) compareStepFact(op pyvalue.Op, l, r Fact, le, re pyast.Expr) (result bool, deps uint64, ok bool) {
	lt, rt := exprType(le), exprType(re)
	deps = l.deps | r.deps
	// None tests resolve from nullability alone.
	if op == pyvalue.OpIs || op == pyvalue.OpEq || op == pyvalue.OpIsNot || op == pyvalue.OpNe {
		neg := op == pyvalue.OpIsNot || op == pyvalue.OpNe
		if _, rNone := re.(*pyast.NoneLit); rNone {
			if l.Null == NullAlways {
				return !neg, l.deps, true
			}
			if l.Null == NullNever {
				return neg, l.deps, true
			}
		}
		if _, lNone := le.(*pyast.NoneLit); lNone {
			if r.Null == NullAlways {
				return !neg, r.deps, true
			}
			if r.Null == NullNever {
				return neg, r.deps, true
			}
		}
	}
	if l.Const != nil && r.Const != nil {
		v, err := pyvalue.Compare(op, l.Const, r.Const)
		if err != nil {
			a.addRaise(pyvalue.KindOf(err))
			return false, 0, false
		}
		if b, isB := v.(pyvalue.Bool); isB {
			return bool(b), deps, true
		}
		return false, 0, false
	}
	// Interval-decided orderings on exact ints.
	if exactKind(lt, types.KindI64) && exactKind(rt, types.KindI64) {
		if t, ok := intervalCompare(op, l, r); ok {
			return t, deps, true
		}
	}
	// Raise sites: ordering between inexact or mixed kinds can
	// TypeError at runtime.
	switch {
	case op.IsOrder():
		if inexact(lt) || inexact(rt) {
			a.addRaise(pyvalue.ExcTypeError)
		}
	case op == pyvalue.OpIn || op == pyvalue.OpNotIn:
		if inexact(rt) {
			a.addRaise(pyvalue.ExcTypeError)
		}
	}
	return false, 0, false
}

// intervalCompare decides l op r over two ints from their intervals: an
// ordering or an equality test.
func intervalCompare(op pyvalue.Op, l, r Fact) (result, ok bool) {
	if op == pyvalue.OpGt || op == pyvalue.OpGe {
		op, l, r = op.Mirror(), r, l
	}
	llo, lhi, lHasLo, lHasHi := l.interval()
	rlo, rhi, rHasLo, rHasHi := r.interval()
	below := lHasHi && rHasLo && lhi < rlo // l < r everywhere
	above := lHasLo && rHasHi && llo > rhi // l > r everywhere
	switch op {
	case pyvalue.OpLt:
		if below || lHasLo && rHasHi && llo >= rhi {
			return below, true
		}
	case pyvalue.OpLe:
		if above || lHasHi && rHasLo && lhi <= rlo {
			return !above, true
		}
	case pyvalue.OpEq, pyvalue.OpNe:
		if below || above {
			return op == pyvalue.OpNe, true
		}
	}
	return false, false
}

func (a *analyzer) ifExprFact(e *pyast.IfExpr, ev *env) Fact {
	cf := a.expr(e.Cond, ev)
	lintConstCond(a, e.Cond)
	if t, ok := cf.truth(); ok {
		if _, already := a.info.Dead[e]; !already {
			arm := inference.DeadThen
			if t {
				arm = inference.DeadElse
			}
			a.markDead(e, deadInfo{arm: arm, deps: cf.deps})
		}
		// Expressions never write the environment (refinements below
		// roll back), so the dead arm needs no scratch copy.
		if t {
			a.expr(e.Else, ev)
			return a.expr(e.Then, ev).withDeps(cf.deps)
		}
		a.expr(e.Then, ev)
		return a.expr(e.Else, ev).withDeps(cf.deps)
	}
	// Refine in place for each arm, then roll the refinement back.
	mark := len(a.undo)
	a.refine(e.Cond, true, ev)
	tf := a.expr(e.Then, ev)
	a.rollback(ev, mark)
	a.refine(e.Cond, false, ev)
	ef := a.expr(e.Else, ev)
	a.rollback(ev, mark)
	return join(tf, ef)
}

func (a *analyzer) subscriptFact(e *pyast.Subscript, ev *env) Fact {
	xf := a.expr(e.X, ev)
	a.expr(e.Index, ev)
	_ = xf
	xt := exprType(e.X)
	if e.RowIdx >= 0 {
		if xn, ok := e.X.(*pyast.Name); ok && ev.aliases[xn.Ident] && e.RowIdx < len(ev.row) {
			return ev.row[e.RowIdx]
		}
		// A row-typed value that is not the input row (e.g. a dict
		// literal): position is statically resolved, no raise.
		return Fact{}
	}
	switch xt.Kind() {
	case types.KindStr, types.KindList, types.KindTuple:
		a.addRaise(pyvalue.ExcIndexError)
		if inexact(exprType(e.Index)) {
			a.addRaise(pyvalue.ExcTypeError)
		}
	case types.KindDict, types.KindRow:
		a.addRaise(pyvalue.ExcKeyError)
	case types.KindMatch:
		a.addRaise(pyvalue.ExcIndexError)
	default:
		a.addRaise(pyvalue.ExcTypeError)
	}
	return Fact{}
}

func (a *analyzer) sliceFact(e *pyast.Slice, ev *env) Fact {
	a.expr(e.X, ev)
	stepSafe := e.Step == nil
	if e.Step != nil {
		sf := a.expr(e.Step, ev)
		if sf.nonZero() && sf.deps == 0 {
			stepSafe = true
		}
	}
	if e.Lo != nil {
		a.expr(e.Lo, ev)
	}
	if e.Hi != nil {
		a.expr(e.Hi, ev)
	}
	if !stepSafe {
		a.addRaise(pyvalue.ExcValueError) // slice step zero
	}
	if inexact(exprType(e.X)) {
		a.addRaise(pyvalue.ExcTypeError)
	}
	return a.nn(Fact{})
}
