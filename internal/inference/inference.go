// Package inference types UDF ASTs with the normal-case types derived
// from the input sample (§4.3: "typing the abstract syntax tree with the
// normal-case types ... is crucial to making UDF compilation tractable").
//
// Typing proceeds by abstract interpretation over the statement list with
// a per-variable type environment; branch joins unify, loops iterate to a
// fixpoint with widening. Expressions that cannot be typed — or that are
// statically guaranteed to raise — are marked in Info.Failed and compile
// into exception exits, which routes affected rows to the general-case
// path at runtime instead of failing compilation (the dual-mode bargain).
//
// Branches whose condition is statically falsy/truthy under the sampled
// types (e.g. testing a column whose normal case is None) are recorded in
// Info.Dead so the code generator prunes them — the §4.7 "code generation
// optimizations".
package inference

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/types"
)

// Branch identifies the arm of an If/IfExpr that is statically dead.
type Branch int8

const (
	// DeadNone marks no dead arm.
	DeadNone Branch = iota
	// DeadThen marks a then-arm that can never execute.
	DeadThen
	// DeadElse marks an else-arm that can never execute.
	DeadElse
)

// Info is the result of typing one UDF.
type Info struct {
	Fn         *pyast.Function
	ParamTypes []types.Type
	ReturnType types.Type
	// Failed maps AST nodes that could not be typed (or are statically
	// raising) to a reason. The code generator emits an exception exit
	// with the given kind for these.
	Failed map[pyast.Node]Failure
	// Dead marks statically-pruned branches of If and IfExpr nodes.
	Dead map[pyast.Node]Branch
	// Globals are the types of module-level constants referenced.
	Globals map[string]types.Type
}

// Failure describes why a node failed to type.
type Failure struct {
	Reason string
	// Raises is the exception this node is statically known to raise
	// ("TypeError" etc.), or "" for a plain unsupported construct.
	Raises string
	// Pos is the source position of the offending node.
	Pos pyast.Pos
}

// Compilable reports whether the whole function typed cleanly (no failed
// nodes reachable).
func (inf *Info) Compilable() bool { return len(inf.Failed) == 0 }

// Options controls inference behavior.
type Options struct {
	// DisableNullPruning turns off constant folding of Null-typed
	// conditions, for the §6.3.3 ablation.
	DisableNullPruning bool
}

// typer carries state through one inference run.
type typer struct {
	info *Info
	opts Options
}

// scope is the per-path variable environment.
type scope map[string]types.Type

func (s scope) clone() scope {
	c := make(scope, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// TypeFunction types fn given its parameter types and global constant
// types. It annotates every expression node in place (types, and row
// positions of subscripts), clearing any earlier annotation first, and
// returns the Info. A non-nil error means the function shape itself is
// unusable (e.g. arity mismatch); recoverable typing failures land in
// Info.Failed instead.
func TypeFunction(fn *pyast.Function, paramTypes []types.Type, globals map[string]types.Type, opts Options) (*Info, error) {
	if len(paramTypes) != len(fn.Params) {
		return nil, fmt.Errorf("inference: UDF %s takes %d parameters, got %d input types",
			fnName(fn), len(fn.Params), len(paramTypes))
	}
	info := &Info{
		Fn:         fn,
		ParamTypes: paramTypes,
		Failed:     map[pyast.Node]Failure{},
		Dead:       map[pyast.Node]Branch{},
		Globals:    globals,
	}
	// Start from the annotations of a fresh parse: arms pruned below are
	// never typed, and must not keep the types and row positions an
	// earlier typing of the same AST wrote there.
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		switch n := n.(type) {
		case *pyast.Subscript:
			n.RowIdx = -1
			n.SetType(types.Type{})
		case pyast.Expr:
			n.SetType(types.Type{})
		}
		return true
	})
	t := &typer{info: info, opts: opts}
	env := scope{}
	for i, p := range fn.Params {
		env[p] = paramTypes[i]
	}
	ret := t.stmts(fn.Body, env)
	if !ret.IsValid() {
		ret = types.Null // fell off the end: returns None
	}
	info.ReturnType = ret
	return info, nil
}

func fnName(fn *pyast.Function) string {
	if fn.Name != "" {
		return fn.Name
	}
	return "<lambda>"
}

// fail records a typing failure for a node and returns Any so enclosing
// expressions keep typing (their failure is implied).
func (t *typer) fail(n pyast.Node, raises, format string, args ...any) types.Type {
	if _, dup := t.info.Failed[n]; !dup {
		pos := n.Pos()
		t.info.Failed[n] = Failure{
			Reason: fmt.Sprintf("%s: ", pos) + fmt.Sprintf(format, args...),
			Raises: raises,
			Pos:    pos,
		}
	}
	if e, ok := n.(pyast.Expr); ok {
		e.SetType(types.Any)
	}
	return types.Any
}

// stmts types a statement list and returns the unified return type of all
// return statements encountered (invalid Type if none).
func (t *typer) stmts(ss []pyast.Stmt, env scope) types.Type {
	var ret types.Type
	for _, s := range ss {
		r := t.stmt(s, env)
		ret = types.Unify(ret, r)
	}
	return ret
}

func (t *typer) stmt(s pyast.Stmt, env scope) types.Type {
	switch s := s.(type) {
	case *pyast.ExprStmt:
		t.expr(s.X, env)
		return types.Type{}
	case *pyast.Assign:
		v := t.expr(s.Value, env)
		t.assign(s.Target, v, env)
		return types.Type{}
	case *pyast.AugAssign:
		cur := t.expr(s.Target, env)
		rhs := t.expr(s.Value, env)
		res := t.binOpType(s, s.Op, cur, rhs)
		t.assign(s.Target, res, env)
		return types.Type{}
	case *pyast.Return:
		if s.X == nil {
			return types.Null
		}
		return t.expr(s.X, env)
	case *pyast.If:
		return t.ifStmt(s, env)
	case *pyast.For:
		return t.forStmt(s, env)
	case *pyast.While:
		t.expr(s.Cond, env)
		// Two passes for loop-carried types, then widen instabilities.
		snapshot := env.clone()
		r1 := t.stmts(s.Body, env)
		t.expr(s.Cond, env)
		r2 := t.stmts(s.Body, env)
		t.widenUnstable(snapshot, env)
		return types.Unify(r1, r2)
	case *pyast.Pass, *pyast.Break, *pyast.Continue:
		return types.Type{}
	default:
		t.fail(s, "", "unsupported statement %T", s)
		return types.Type{}
	}
}

func (t *typer) assign(target pyast.Expr, v types.Type, env scope) {
	switch target := target.(type) {
	case *pyast.Name:
		env[target.Ident] = v
		target.SetType(v)
	case *pyast.Subscript:
		t.expr(target.X, env)
		t.expr(target.Index, env)
		// Item assignment keeps the container type; only list/dict
		// targets are semantically valid and only the boxed paths mutate
		// containers, so no further refinement here.
	case *pyast.TupleLit:
		elts := tupleEltTypes(v, len(target.Elts))
		if elts == nil {
			t.fail(target, "", "cannot statically unpack %s into %d names", v, len(target.Elts))
			return
		}
		for i, el := range target.Elts {
			if n, ok := el.(*pyast.Name); ok {
				env[n.Ident] = elts[i]
				n.SetType(elts[i])
			}
		}
	default:
		t.fail(target, "", "unsupported assignment target %T", target)
	}
}

// tupleEltTypes resolves the element types for unpacking v into n names.
func tupleEltTypes(v types.Type, n int) []types.Type {
	switch v.Kind() {
	case types.KindTuple:
		if len(v.Elts()) != n {
			return nil
		}
		return v.Elts()
	case types.KindList:
		out := make([]types.Type, n)
		for i := range out {
			out[i] = v.Elem()
		}
		return out
	default:
		return nil
	}
}

func (t *typer) ifStmt(s *pyast.If, env scope) types.Type {
	condT := t.expr(s.Cond, env)
	// Static truthiness pruning: a Null condition is always falsy under
	// the sampled normal case (§4.7's flights example).
	if !t.opts.DisableNullPruning {
		switch staticTruth(s.Cond, condT) {
		case truthFalse:
			t.info.Dead[s] = DeadThen
			if s.Else != nil {
				return t.stmts(s.Else, env)
			}
			return types.Type{}
		case truthTrue:
			t.info.Dead[s] = DeadElse
			return t.stmts(s.Then, env)
		}
	}
	thenEnv := env.clone()
	elseEnv := env.clone()
	r1 := t.stmts(s.Then, thenEnv)
	var r2 types.Type
	if s.Else != nil {
		r2 = t.stmts(s.Else, elseEnv)
	}
	mergeScopes(env, thenEnv, elseEnv)
	return types.Unify(r1, r2)
}

// mergeScopes joins the variable types of two branch environments into
// env. A variable assigned in only one branch keeps that type (reading it
// when unassigned raises at runtime, which the frame handles).
func mergeScopes(env, a, b scope) {
	for k, va := range a {
		if vb, ok := b[k]; ok {
			env[k] = types.Unify(va, vb)
		} else {
			env[k] = va
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			env[k] = vb
		}
	}
}

func (t *typer) forStmt(s *pyast.For, env scope) types.Type {
	iterT := t.expr(s.Iter, env)
	eltT := elementType(iterT)
	if !eltT.IsValid() {
		t.fail(s.Iter, "TypeError", "%s is not iterable", iterT)
		eltT = types.Any
	}
	t.assign(s.Var, eltT, env)
	snapshot := env.clone()
	r1 := t.stmts(s.Body, env)
	r2 := t.stmts(s.Body, env)
	t.widenUnstable(snapshot, env)
	return types.Unify(r1, r2)
}

// widenUnstable replaces variables whose type is still changing across
// loop iterations with the unified type (or Any when incompatible).
func (t *typer) widenUnstable(before, after scope) {
	for k, vb := range before {
		if va, ok := after[k]; ok && !types.Equal(va, vb) {
			after[k] = types.Unify(va, vb)
		}
	}
}

// elementType returns the element type when iterating a value of type ty.
func elementType(ty types.Type) types.Type {
	switch ty.Kind() {
	case types.KindList, types.KindIter:
		return ty.Elem()
	case types.KindStr:
		return types.Str
	case types.KindTuple:
		return types.UnifyAll(ty.Elts())
	case types.KindDict:
		return types.Str
	default:
		return types.Type{}
	}
}

type truth int8

const (
	truthUnknown truth = iota
	truthTrue
	truthFalse
)

// staticTruth decides a condition's truthiness from its type alone where
// sound: Null is always falsy; literal constants fold.
func staticTruth(e pyast.Expr, ty types.Type) truth {
	switch e := e.(type) {
	case *pyast.BoolLit:
		if e.B {
			return truthTrue
		}
		return truthFalse
	case *pyast.NoneLit:
		return truthFalse
	case *pyast.NumLit:
		var truthy bool
		if e.IsFloat {
			truthy = e.F != 0
		} else {
			truthy = e.I != 0
		}
		if truthy {
			return truthTrue
		}
		return truthFalse
	case *pyast.StrLit:
		if e.S != "" {
			return truthTrue
		}
		return truthFalse
	}
	if ty.Kind() == types.KindNull {
		return truthFalse
	}
	return truthUnknown
}
