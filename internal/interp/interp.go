// Package interp executes UDF ASTs over boxed pyvalue objects. It is
// Tuplex's fallback path (the "Python interpreter" of §4.3) and the UDF
// engine of the interpreter-based baselines.
//
// Three execution modes mirror the systems compared in the paper's §6.2:
//
//   - tree-walking evaluation (CPython analog, the default);
//   - Compile: one-time AST→closure translation over boxed values
//     ("unrolled interpreter", the Cython/Nuitka transpiler analog);
//   - Trace: warmup-counted trace compilation with per-call type guards
//     and deopt (the PyPy tracing-JIT analog).
//
// All modes share pyvalue's Python semantics, and apply every operator
// through pyvalue.Binary, Unary and Compare (the dispatch the compiled
// paths' boxed closures and dataflow's constant folds call too), so they
// are interchangeable oracles for the compiled fast path.
package interp

import (
	"sync/atomic"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Interp is an interpreter instance. It is not safe for concurrent use;
// engines allocate one per executor thread (the paper's prototype
// likewise acquires the GIL per fallback invocation — our per-thread
// instances model the same serialization without a global lock).
type Interp struct {
	// Globals are module-level constants available to UDFs (e.g. the
	// LETTERS alphabet in the weblog pipeline).
	Globals map[string]pyvalue.Value
	// Rand powers random.choice.
	Rand *pyre.PRNG

	reCache map[string]*pyre.Regexp
}

// New returns an interpreter with the given globals (may be nil).
func New(globals map[string]pyvalue.Value) *Interp {
	return &Interp{
		Globals: globals,
		Rand:    pyre.NewPRNG(0x7457_1e4),
		reCache: make(map[string]*pyre.Regexp),
	}
}

// Regexp returns the compiled pattern, caching like Python's re module.
func (ip *Interp) Regexp(pattern string) (*pyre.Regexp, error) {
	if re, ok := ip.reCache[pattern]; ok {
		return re, nil
	}
	re, err := pyre.Compile(pattern)
	if err != nil {
		return nil, pyvalue.Raise(pyvalue.ExcValueError, "re.compile: %v", err)
	}
	ip.reCache[pattern] = re
	return re, nil
}

// ctl is statement-level control flow.
type ctl uint8

const (
	ctlNext ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// env is a variable scope for one UDF invocation.
type env struct {
	vars map[string]pyvalue.Value
	ip   *Interp
}

// Call runs fn on args in tree-walking mode.
func (ip *Interp) Call(fn *pyast.Function, args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) != len(fn.Params) {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError,
			"%s() takes %d positional arguments but %d were given",
			fnName(fn), len(fn.Params), len(args))
	}
	e := &env{vars: make(map[string]pyvalue.Value, len(fn.Params)+4), ip: ip}
	for i, p := range fn.Params {
		e.vars[p] = args[i]
	}
	c, v, err := e.execStmts(fn.Body)
	if err != nil {
		return nil, err
	}
	if c == ctlReturn {
		return v, nil
	}
	return pyvalue.None{}, nil
}

func fnName(fn *pyast.Function) string {
	if fn.Name != "" {
		return fn.Name
	}
	return "<lambda>"
}

func (e *env) execStmts(stmts []pyast.Stmt) (ctl, pyvalue.Value, error) {
	for _, s := range stmts {
		c, v, err := e.exec(s)
		if err != nil || c != ctlNext {
			return c, v, err
		}
	}
	return ctlNext, nil, nil
}

func (e *env) exec(s pyast.Stmt) (ctl, pyvalue.Value, error) {
	switch s := s.(type) {
	case *pyast.ExprStmt:
		_, err := e.eval(s.X)
		return ctlNext, nil, err
	case *pyast.Assign:
		v, err := e.eval(s.Value)
		if err != nil {
			return ctlNext, nil, err
		}
		return ctlNext, nil, e.assign(s.Target, v)
	case *pyast.AugAssign:
		cur, err := e.eval(s.Target)
		if err != nil {
			return ctlNext, nil, err
		}
		rhs, err := e.eval(s.Value)
		if err != nil {
			return ctlNext, nil, err
		}
		v, err := pyvalue.Binary(s.Op, cur, rhs)
		if err != nil {
			return ctlNext, nil, err
		}
		return ctlNext, nil, e.assign(s.Target, v)
	case *pyast.If:
		cond, err := e.eval(s.Cond)
		if err != nil {
			return ctlNext, nil, err
		}
		if pyvalue.Truth(cond) {
			atomic.AddInt64(&s.ThenTaken, 1)
			return e.execStmts(s.Then)
		}
		atomic.AddInt64(&s.ElseTaken, 1)
		if s.Else != nil {
			return e.execStmts(s.Else)
		}
		return ctlNext, nil, nil
	case *pyast.Return:
		if s.X == nil {
			return ctlReturn, pyvalue.None{}, nil
		}
		v, err := e.eval(s.X)
		if err != nil {
			return ctlNext, nil, err
		}
		return ctlReturn, v, nil
	case *pyast.For:
		return e.execFor(s)
	case *pyast.While:
		for {
			cond, err := e.eval(s.Cond)
			if err != nil {
				return ctlNext, nil, err
			}
			if !pyvalue.Truth(cond) {
				return ctlNext, nil, nil
			}
			c, v, err := e.execStmts(s.Body)
			if err != nil {
				return ctlNext, nil, err
			}
			switch c {
			case ctlReturn:
				return c, v, nil
			case ctlBreak:
				return ctlNext, nil, nil
			}
		}
	case *pyast.Pass:
		return ctlNext, nil, nil
	case *pyast.Break:
		return ctlBreak, nil, nil
	case *pyast.Continue:
		return ctlContinue, nil, nil
	default:
		return ctlNext, nil, pyvalue.Raise(pyvalue.ExcUnsupported, "statement %T", s)
	}
}

func (e *env) execFor(s *pyast.For) (ctl, pyvalue.Value, error) {
	items, err := e.iterate(s.Iter)
	if err != nil {
		return ctlNext, nil, err
	}
	for _, it := range items {
		if err := e.assign(s.Var, it); err != nil {
			return ctlNext, nil, err
		}
		c, v, err := e.execStmts(s.Body)
		if err != nil {
			return ctlNext, nil, err
		}
		switch c {
		case ctlReturn:
			return c, v, nil
		case ctlBreak:
			return ctlNext, nil, nil
		}
	}
	return ctlNext, nil, nil
}

// iterate materializes an iterable expression into a value slice.
func (e *env) iterate(expr pyast.Expr) ([]pyvalue.Value, error) {
	// range(...) iterates lazily in Python; materializing is equivalent
	// for the bounded loops UDFs use.
	v, err := e.eval(expr)
	if err != nil {
		return nil, err
	}
	return Iterate(v)
}

// Iterate converts an iterable value into a slice of elements.
func Iterate(v pyvalue.Value) ([]pyvalue.Value, error) {
	switch v := v.(type) {
	case *pyvalue.List:
		return v.Items, nil
	case *pyvalue.Tuple:
		return v.Items, nil
	case pyvalue.Str:
		items := make([]pyvalue.Value, len(v))
		for i := range v {
			items[i] = v[i : i+1]
		}
		return items, nil
	case *pyvalue.Dict:
		items := make([]pyvalue.Value, 0, v.Len())
		for _, k := range v.Keys() {
			items = append(items, pyvalue.Str(k))
		}
		return items, nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "%q object is not iterable", pyvalue.TypeName(v))
	}
}

func (e *env) assign(target pyast.Expr, v pyvalue.Value) error {
	switch t := target.(type) {
	case *pyast.Name:
		e.vars[t.Ident] = v
		return nil
	case *pyast.Subscript:
		cont, err := e.eval(t.X)
		if err != nil {
			return err
		}
		idx, err := e.eval(t.Index)
		if err != nil {
			return err
		}
		return pyvalue.SetIndex(cont, idx, v)
	case *pyast.TupleLit:
		items, err := Iterate(v)
		if err != nil {
			return pyvalue.Raise(pyvalue.ExcTypeError, "cannot unpack non-sequence %s", pyvalue.TypeName(v))
		}
		if len(items) != len(t.Elts) {
			return pyvalue.Raise(pyvalue.ExcValueError,
				"not enough values to unpack (expected %d, got %d)", len(t.Elts), len(items))
		}
		for i, el := range t.Elts {
			if err := e.assign(el, items[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		return pyvalue.Raise(pyvalue.ExcUnsupported, "assignment target %T", target)
	}
}

func (e *env) eval(x pyast.Expr) (pyvalue.Value, error) {
	switch x := x.(type) {
	case *pyast.NumLit:
		if x.IsFloat {
			return pyvalue.Float(x.F), nil
		}
		return pyvalue.Int(x.I), nil
	case *pyast.StrLit:
		return pyvalue.Str(x.S), nil
	case *pyast.BoolLit:
		return pyvalue.Bool(x.B), nil
	case *pyast.NoneLit:
		return pyvalue.None{}, nil
	case *pyast.Name:
		if v, ok := e.vars[x.Ident]; ok {
			return v, nil
		}
		if v, ok := e.ip.Globals[x.Ident]; ok {
			return v, nil
		}
		return nil, pyvalue.Raise(pyvalue.ExcNameError, "name %q is not defined", x.Ident)
	case *pyast.BinOp:
		l, err := e.eval(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(x.Right)
		if err != nil {
			return nil, err
		}
		return pyvalue.Binary(x.Op, l, r)
	case *pyast.UnaryOp:
		v, err := e.eval(x.X)
		if err != nil {
			return nil, err
		}
		return pyvalue.Unary(x.Op, v)
	case *pyast.Compare:
		left, err := e.eval(x.First)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			right, err := e.eval(x.Rest[i])
			if err != nil {
				return nil, err
			}
			res, err := pyvalue.Compare(op, left, right)
			if err != nil {
				return nil, err
			}
			if !pyvalue.Truth(res) {
				return pyvalue.Bool(false), nil
			}
			left = right
		}
		return pyvalue.Bool(true), nil
	case *pyast.BoolOp:
		var v pyvalue.Value
		var err error
		for i, sub := range x.Xs {
			v, err = e.eval(sub)
			if err != nil {
				return nil, err
			}
			last := i == len(x.Xs)-1
			if last {
				return v, nil
			}
			if pyvalue.Truth(v) == (x.Op == pyvalue.OpOr) {
				return v, nil
			}
		}
		return v, nil
	case *pyast.IfExpr:
		cond, err := e.eval(x.Cond)
		if err != nil {
			return nil, err
		}
		if pyvalue.Truth(cond) {
			return e.eval(x.Then)
		}
		return e.eval(x.Else)
	case *pyast.Subscript:
		cont, err := e.eval(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := e.eval(x.Index)
		if err != nil {
			return nil, err
		}
		return pyvalue.GetIndex(cont, idx)
	case *pyast.Slice:
		cont, err := e.eval(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := e.evalBound(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := e.evalBound(x.Hi)
		if err != nil {
			return nil, err
		}
		step, err := e.evalBound(x.Step)
		if err != nil {
			return nil, err
		}
		return pyvalue.GetSlice(cont, lo, hi, step)
	case *pyast.TupleLit:
		items, err := e.evalAll(x.Elts)
		if err != nil {
			return nil, err
		}
		return &pyvalue.Tuple{Items: items}, nil
	case *pyast.ListLit:
		items, err := e.evalAll(x.Elts)
		if err != nil {
			return nil, err
		}
		return &pyvalue.List{Items: items}, nil
	case *pyast.DictLit:
		d := pyvalue.NewDict()
		for i := range x.Keys {
			k, err := e.eval(x.Keys[i])
			if err != nil {
				return nil, err
			}
			ks, ok := k.(pyvalue.Str)
			if !ok {
				return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "non-string dict key %s", pyvalue.TypeName(k))
			}
			v, err := e.eval(x.Vals[i])
			if err != nil {
				return nil, err
			}
			d.Set(string(ks), v)
		}
		return d, nil
	case *pyast.ListComp:
		items, err := e.iterate(x.Iter)
		if err != nil {
			return nil, err
		}
		out := &pyvalue.List{}
		saved, had := e.vars[x.Var]
		for _, it := range items {
			e.vars[x.Var] = it
			if x.Cond != nil {
				c, err := e.eval(x.Cond)
				if err != nil {
					return nil, err
				}
				if !pyvalue.Truth(c) {
					continue
				}
			}
			v, err := e.eval(x.Elt)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, v)
		}
		if had {
			e.vars[x.Var] = saved
		} else {
			delete(e.vars, x.Var)
		}
		return out, nil
	case *pyast.Call:
		return e.evalCall(x)
	case *pyast.Attr:
		// Bare attribute access evaluates to a bound-method-like Func.
		recv, err := e.eval(x.X)
		if err != nil {
			return nil, err
		}
		name := x.Name
		return &pyvalue.Func{Name: name, Call: func(args []pyvalue.Value) (pyvalue.Value, error) {
			return pyvalue.CallMethod(recv, name, args)
		}}, nil
	case *pyast.Lambda:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "nested lambda")
	default:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "expression %T", x)
	}
}

func (e *env) evalBound(x pyast.Expr) (*int64, error) {
	if x == nil {
		return nil, nil
	}
	v, err := e.eval(x)
	if err != nil {
		return nil, err
	}
	switch v := v.(type) {
	case pyvalue.Int:
		n := int64(v)
		return &n, nil
	case pyvalue.Bool:
		n := int64(0)
		if v {
			n = 1
		}
		return &n, nil
	case pyvalue.None:
		return nil, nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcTypeError,
			"slice indices must be integers or None, not %s", pyvalue.TypeName(v))
	}
}

func (e *env) evalAll(xs []pyast.Expr) ([]pyvalue.Value, error) {
	items := make([]pyvalue.Value, len(xs))
	for i, x := range xs {
		v, err := e.eval(x)
		if err != nil {
			return nil, err
		}
		items[i] = v
	}
	return items, nil
}
