package interp

import (
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Compiled is a UDF translated once into a tree of Go closures over boxed
// values: the moral equivalent of Cython/Nuitka's "unrolled interpreter"
// output (§6.2.1). Dispatch on AST node kinds is paid at compile time
// only, but every value is still a heap-boxed Python object — which is
// exactly why the paper finds transpilers only ~20% faster than CPython.
type Compiled struct {
	Fn     *pyast.Function
	nslots int
	params []int
	body   []bstmt
}

// bframe is the runtime frame of a Compiled UDF.
type bframe struct {
	slots []pyvalue.Value
	ip    *Interp
}

type bexpr func(fr *bframe) (pyvalue.Value, error)
type bstmt func(fr *bframe) (ctl, pyvalue.Value, error)

// Compile translates fn into closures. The returned Compiled is safe for
// concurrent Call only if each goroutine uses its own Interp; the engine
// compiles once per interpreter instance (per run, and per parallel
// resolve worker), when a row first reaches the general path.
func (ip *Interp) Compile(fn *pyast.Function) (*Compiled, error) {
	bc := &bcompiler{ip: ip, slots: map[string]int{}}
	for _, p := range fn.Params {
		bc.slot(p)
	}
	// Pre-allocate slots for every assigned name so that reads compiled
	// before the (textually later) assignment still resolve as locals,
	// matching Python's function-wide local scoping.
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		switch n := n.(type) {
		case *pyast.Assign:
			bc.slotTarget(n.Target)
		case *pyast.AugAssign:
			bc.slotTarget(n.Target)
		case *pyast.For:
			bc.slotTarget(n.Var)
		case *pyast.ListComp:
			bc.slot(n.Var)
		}
		return true
	})
	c := &Compiled{Fn: fn}
	for _, p := range fn.Params {
		c.params = append(c.params, bc.slots[p])
	}
	body, err := bc.compileStmts(fn.Body)
	if err != nil {
		return nil, err
	}
	c.body = body
	c.nslots = len(bc.slots)
	return c, nil
}

// Call executes the compiled UDF. The interp argument supplies the
// per-thread regex cache and PRNG.
func (c *Compiled) Call(ip *Interp, args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) != len(c.params) {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError,
			"%s() takes %d positional arguments but %d were given",
			fnName(c.Fn), len(c.params), len(args))
	}
	fr := &bframe{slots: make([]pyvalue.Value, c.nslots), ip: ip}
	for i, s := range c.params {
		fr.slots[s] = args[i]
	}
	for _, st := range c.body {
		ctl, v, err := st(fr)
		if err != nil {
			return nil, err
		}
		if ctl == ctlReturn {
			return v, nil
		}
	}
	return pyvalue.None{}, nil
}

type bcompiler struct {
	ip    *Interp
	slots map[string]int
}

func (bc *bcompiler) slot(name string) int {
	if s, ok := bc.slots[name]; ok {
		return s
	}
	s := len(bc.slots)
	bc.slots[name] = s
	return s
}

func (bc *bcompiler) compileStmts(stmts []pyast.Stmt) ([]bstmt, error) {
	out := make([]bstmt, 0, len(stmts))
	for _, s := range stmts {
		cs, err := bc.compileStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

func runStmts(fr *bframe, stmts []bstmt) (ctl, pyvalue.Value, error) {
	for _, s := range stmts {
		c, v, err := s(fr)
		if err != nil || c != ctlNext {
			return c, v, err
		}
	}
	return ctlNext, nil, nil
}

func (bc *bcompiler) compileStmt(s pyast.Stmt) (bstmt, error) {
	switch s := s.(type) {
	case *pyast.ExprStmt:
		x, err := bc.compileExpr(s.X)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (ctl, pyvalue.Value, error) {
			_, err := x(fr)
			return ctlNext, nil, err
		}, nil
	case *pyast.Assign:
		v, err := bc.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		st, err := bc.compileAssign(s.Target, v)
		if err != nil {
			return nil, err
		}
		return st, nil
	case *pyast.AugAssign:
		cur, err := bc.compileExpr(s.Target)
		if err != nil {
			return nil, err
		}
		rhs, err := bc.compileExpr(s.Value)
		if err != nil {
			return nil, err
		}
		op := s.Op
		comb := func(fr *bframe) (pyvalue.Value, error) {
			a, err := cur(fr)
			if err != nil {
				return nil, err
			}
			b, err := rhs(fr)
			if err != nil {
				return nil, err
			}
			return binOp(op, a, b)
		}
		return bc.compileAssign(s.Target, comb)
	case *pyast.Return:
		if s.X == nil {
			return func(fr *bframe) (ctl, pyvalue.Value, error) {
				return ctlReturn, pyvalue.None{}, nil
			}, nil
		}
		x, err := bc.compileExpr(s.X)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (ctl, pyvalue.Value, error) {
			v, err := x(fr)
			if err != nil {
				return ctlNext, nil, err
			}
			return ctlReturn, v, nil
		}, nil
	case *pyast.If:
		cond, err := bc.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		then, err := bc.compileStmts(s.Then)
		if err != nil {
			return nil, err
		}
		var els []bstmt
		if s.Else != nil {
			if els, err = bc.compileStmts(s.Else); err != nil {
				return nil, err
			}
		}
		return func(fr *bframe) (ctl, pyvalue.Value, error) {
			c, err := cond(fr)
			if err != nil {
				return ctlNext, nil, err
			}
			if pyvalue.Truth(c) {
				return runStmts(fr, then)
			}
			return runStmts(fr, els)
		}, nil
	case *pyast.For:
		iter, err := bc.compileExpr(s.Iter)
		if err != nil {
			return nil, err
		}
		setVar, err := bc.compileAssignValue(s.Var)
		if err != nil {
			return nil, err
		}
		body, err := bc.compileStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (ctl, pyvalue.Value, error) {
			itv, err := iter(fr)
			if err != nil {
				return ctlNext, nil, err
			}
			items, err := Iterate(itv)
			if err != nil {
				return ctlNext, nil, err
			}
			for _, it := range items {
				if err := setVar(fr, it); err != nil {
					return ctlNext, nil, err
				}
				c, v, err := runStmts(fr, body)
				if err != nil {
					return ctlNext, nil, err
				}
				if c == ctlReturn {
					return c, v, nil
				}
				if c == ctlBreak {
					break
				}
			}
			return ctlNext, nil, nil
		}, nil
	case *pyast.While:
		cond, err := bc.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := bc.compileStmts(s.Body)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (ctl, pyvalue.Value, error) {
			for {
				c, err := cond(fr)
				if err != nil {
					return ctlNext, nil, err
				}
				if !pyvalue.Truth(c) {
					return ctlNext, nil, nil
				}
				cc, v, err := runStmts(fr, body)
				if err != nil {
					return ctlNext, nil, err
				}
				if cc == ctlReturn {
					return cc, v, nil
				}
				if cc == ctlBreak {
					return ctlNext, nil, nil
				}
			}
		}, nil
	case *pyast.Pass:
		return func(fr *bframe) (ctl, pyvalue.Value, error) { return ctlNext, nil, nil }, nil
	case *pyast.Break:
		return func(fr *bframe) (ctl, pyvalue.Value, error) { return ctlBreak, nil, nil }, nil
	case *pyast.Continue:
		return func(fr *bframe) (ctl, pyvalue.Value, error) { return ctlContinue, nil, nil }, nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "statement %T", s)
	}
}

func (bc *bcompiler) compileAssign(target pyast.Expr, value bexpr) (bstmt, error) {
	set, err := bc.compileAssignValue(target)
	if err != nil {
		return nil, err
	}
	return func(fr *bframe) (ctl, pyvalue.Value, error) {
		v, err := value(fr)
		if err != nil {
			return ctlNext, nil, err
		}
		return ctlNext, nil, set(fr, v)
	}, nil
}

// compileAssignValue compiles a target into a setter.
func (bc *bcompiler) compileAssignValue(target pyast.Expr) (func(fr *bframe, v pyvalue.Value) error, error) {
	switch t := target.(type) {
	case *pyast.Name:
		s := bc.slot(t.Ident)
		return func(fr *bframe, v pyvalue.Value) error {
			fr.slots[s] = v
			return nil
		}, nil
	case *pyast.Subscript:
		cont, err := bc.compileExpr(t.X)
		if err != nil {
			return nil, err
		}
		idx, err := bc.compileExpr(t.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe, v pyvalue.Value) error {
			c, err := cont(fr)
			if err != nil {
				return err
			}
			i, err := idx(fr)
			if err != nil {
				return err
			}
			return pyvalue.SetIndex(c, i, v)
		}, nil
	case *pyast.TupleLit:
		setters := make([]func(fr *bframe, v pyvalue.Value) error, len(t.Elts))
		for i, el := range t.Elts {
			set, err := bc.compileAssignValue(el)
			if err != nil {
				return nil, err
			}
			setters[i] = set
		}
		return func(fr *bframe, v pyvalue.Value) error {
			items, err := Iterate(v)
			if err != nil {
				return pyvalue.Raise(pyvalue.ExcTypeError, "cannot unpack non-sequence %s", pyvalue.TypeName(v))
			}
			if len(items) != len(setters) {
				return pyvalue.Raise(pyvalue.ExcValueError,
					"not enough values to unpack (expected %d, got %d)", len(setters), len(items))
			}
			for i, set := range setters {
				if err := set(fr, items[i]); err != nil {
					return err
				}
			}
			return nil
		}, nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "assignment target %T", target)
	}
}

func (bc *bcompiler) compileExprs(xs []pyast.Expr) ([]bexpr, error) {
	out := make([]bexpr, len(xs))
	for i, x := range xs {
		e, err := bc.compileExpr(x)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func evalAllB(fr *bframe, xs []bexpr) ([]pyvalue.Value, error) {
	items := make([]pyvalue.Value, len(xs))
	for i, x := range xs {
		v, err := x(fr)
		if err != nil {
			return nil, err
		}
		items[i] = v
	}
	return items, nil
}

func (bc *bcompiler) compileExpr(x pyast.Expr) (bexpr, error) {
	switch x := x.(type) {
	case *pyast.NumLit:
		if x.IsFloat {
			v := pyvalue.Float(x.F)
			return func(fr *bframe) (pyvalue.Value, error) { return v, nil }, nil
		}
		v := pyvalue.Int(x.I)
		return func(fr *bframe) (pyvalue.Value, error) { return v, nil }, nil
	case *pyast.StrLit:
		v := pyvalue.Str(x.S)
		return func(fr *bframe) (pyvalue.Value, error) { return v, nil }, nil
	case *pyast.BoolLit:
		v := pyvalue.Bool(x.B)
		return func(fr *bframe) (pyvalue.Value, error) { return v, nil }, nil
	case *pyast.NoneLit:
		return func(fr *bframe) (pyvalue.Value, error) { return pyvalue.None{}, nil }, nil
	case *pyast.Name:
		if s, ok := bc.slots[x.Ident]; ok {
			ident := x.Ident
			return func(fr *bframe) (pyvalue.Value, error) {
				v := fr.slots[s]
				if v == nil {
					return nil, pyvalue.Raise(pyvalue.ExcNameError,
						"local variable %q referenced before assignment", ident)
				}
				return v, nil
			}, nil
		}
		if v, ok := bc.ip.Globals[x.Ident]; ok {
			return func(fr *bframe) (pyvalue.Value, error) { return v, nil }, nil
		}
		ident := x.Ident
		return func(fr *bframe) (pyvalue.Value, error) {
			if g, ok := fr.ip.Globals[ident]; ok {
				return g, nil
			}
			return nil, pyvalue.Raise(pyvalue.ExcNameError, "name %q is not defined", ident)
		}, nil
	case *pyast.BinOp:
		l, err := bc.compileExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := bc.compileExpr(x.Right)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(fr *bframe) (pyvalue.Value, error) {
			a, err := l(fr)
			if err != nil {
				return nil, err
			}
			b, err := r(fr)
			if err != nil {
				return nil, err
			}
			return binOp(op, a, b)
		}, nil
	case *pyast.UnaryOp:
		sub, err := bc.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(fr *bframe) (pyvalue.Value, error) {
			v, err := sub(fr)
			if err != nil {
				return nil, err
			}
			return unaryOp(op, v)
		}, nil
	case *pyast.Compare:
		first, err := bc.compileExpr(x.First)
		if err != nil {
			return nil, err
		}
		rest, err := bc.compileExprs(x.Rest)
		if err != nil {
			return nil, err
		}
		ops := x.Ops
		return func(fr *bframe) (pyvalue.Value, error) {
			left, err := first(fr)
			if err != nil {
				return nil, err
			}
			for i, op := range ops {
				right, err := rest[i](fr)
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
		}, nil
	case *pyast.BoolOp:
		subs, err := bc.compileExprs(x.Xs)
		if err != nil {
			return nil, err
		}
		isAnd := x.Op == "and"
		return func(fr *bframe) (pyvalue.Value, error) {
			var v pyvalue.Value
			var err error
			for i, sub := range subs {
				v, err = sub(fr)
				if err != nil {
					return nil, err
				}
				if i == len(subs)-1 {
					break
				}
				if isAnd && !pyvalue.Truth(v) {
					return v, nil
				}
				if !isAnd && pyvalue.Truth(v) {
					return v, nil
				}
			}
			return v, nil
		}, nil
	case *pyast.IfExpr:
		cond, err := bc.compileExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := bc.compileExpr(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := bc.compileExpr(x.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			c, err := cond(fr)
			if err != nil {
				return nil, err
			}
			if pyvalue.Truth(c) {
				return then(fr)
			}
			return els(fr)
		}, nil
	case *pyast.Subscript:
		cont, err := bc.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := bc.compileExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			c, err := cont(fr)
			if err != nil {
				return nil, err
			}
			i, err := idx(fr)
			if err != nil {
				return nil, err
			}
			return pyvalue.GetIndex(c, i)
		}, nil
	case *pyast.Slice:
		return bc.compileSlice(x)
	case *pyast.TupleLit:
		elts, err := bc.compileExprs(x.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			items, err := evalAllB(fr, elts)
			if err != nil {
				return nil, err
			}
			return &pyvalue.Tuple{Items: items}, nil
		}, nil
	case *pyast.ListLit:
		elts, err := bc.compileExprs(x.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			items, err := evalAllB(fr, elts)
			if err != nil {
				return nil, err
			}
			return &pyvalue.List{Items: items}, nil
		}, nil
	case *pyast.DictLit:
		keys, err := bc.compileExprs(x.Keys)
		if err != nil {
			return nil, err
		}
		vals, err := bc.compileExprs(x.Vals)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			d := pyvalue.NewDict()
			for i := range keys {
				k, err := keys[i](fr)
				if err != nil {
					return nil, err
				}
				ks, ok := k.(pyvalue.Str)
				if !ok {
					return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "non-string dict key")
				}
				v, err := vals[i](fr)
				if err != nil {
					return nil, err
				}
				d.Set(string(ks), v)
			}
			return d, nil
		}, nil
	case *pyast.ListComp:
		iter, err := bc.compileExpr(x.Iter)
		if err != nil {
			return nil, err
		}
		s := bc.slot(x.Var)
		var cond bexpr
		if x.Cond != nil {
			if cond, err = bc.compileExpr(x.Cond); err != nil {
				return nil, err
			}
		}
		elt, err := bc.compileExpr(x.Elt)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			itv, err := iter(fr)
			if err != nil {
				return nil, err
			}
			items, err := Iterate(itv)
			if err != nil {
				return nil, err
			}
			out := &pyvalue.List{Items: make([]pyvalue.Value, 0, len(items))}
			saved := fr.slots[s]
			for _, it := range items {
				fr.slots[s] = it
				if cond != nil {
					c, err := cond(fr)
					if err != nil {
						return nil, err
					}
					if !pyvalue.Truth(c) {
						continue
					}
				}
				v, err := elt(fr)
				if err != nil {
					return nil, err
				}
				out.Items = append(out.Items, v)
			}
			fr.slots[s] = saved
			return out, nil
		}, nil
	case *pyast.Call:
		return bc.compileCall(x)
	case *pyast.Attr:
		recv, err := bc.compileExpr(x.X)
		if err != nil {
			return nil, err
		}
		name := x.Name
		return func(fr *bframe) (pyvalue.Value, error) {
			r, err := recv(fr)
			if err != nil {
				return nil, err
			}
			return &pyvalue.Func{Name: name, Call: func(args []pyvalue.Value) (pyvalue.Value, error) {
				return pyvalue.CallMethod(r, name, args)
			}}, nil
		}, nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "expression %T", x)
	}
}

// slotTarget allocates slots for all names in an assignment target.
func (bc *bcompiler) slotTarget(t pyast.Expr) {
	switch t := t.(type) {
	case *pyast.Name:
		bc.slot(t.Ident)
	case *pyast.TupleLit:
		for _, el := range t.Elts {
			if n, ok := el.(*pyast.Name); ok {
				bc.slot(n.Ident)
			}
		}
	}
}

func (bc *bcompiler) compileSlice(x *pyast.Slice) (bexpr, error) {
	cont, err := bc.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	compileBound := func(b pyast.Expr) (bexpr, error) {
		if b == nil {
			return nil, nil
		}
		return bc.compileExpr(b)
	}
	lo, err := compileBound(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := compileBound(x.Hi)
	if err != nil {
		return nil, err
	}
	step, err := compileBound(x.Step)
	if err != nil {
		return nil, err
	}
	evalBound := func(fr *bframe, b bexpr) (*int64, error) {
		if b == nil {
			return nil, nil
		}
		v, err := b(fr)
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
	return func(fr *bframe) (pyvalue.Value, error) {
		c, err := cont(fr)
		if err != nil {
			return nil, err
		}
		l, err := evalBound(fr, lo)
		if err != nil {
			return nil, err
		}
		h, err := evalBound(fr, hi)
		if err != nil {
			return nil, err
		}
		st, err := evalBound(fr, step)
		if err != nil {
			return nil, err
		}
		return pyvalue.GetSlice(c, l, h, st)
	}, nil
}

// compileCall resolves callables at compile time where possible (the
// transpiler advantage over tree-walking).
func (bc *bcompiler) compileCall(call *pyast.Call) (bexpr, error) {
	if attr, ok := call.Fn.(*pyast.Attr); ok {
		if mod, ok := attr.X.(*pyast.Name); ok && isModuleName(mod.Ident) {
			if _, shadowed := bc.slots[mod.Ident]; !shadowed {
				args, err := bc.compileExprs(call.Args)
				if err != nil {
					return nil, err
				}
				modName, fnName := mod.Ident, attr.Name
				return func(fr *bframe) (pyvalue.Value, error) {
					vals, err := evalAllB(fr, args)
					if err != nil {
						return nil, err
					}
					e := &env{ip: fr.ip}
					return e.callModule(modName, fnName, vals)
				}, nil
			}
		}
		recv, err := bc.compileExpr(attr.X)
		if err != nil {
			return nil, err
		}
		args, err := bc.compileExprs(call.Args)
		if err != nil {
			return nil, err
		}
		name := attr.Name
		return func(fr *bframe) (pyvalue.Value, error) {
			r, err := recv(fr)
			if err != nil {
				return nil, err
			}
			if err := pyvalue.LookupMethod(r, name); err != nil {
				return nil, err
			}
			vals, err := evalAllB(fr, args)
			if err != nil {
				return nil, err
			}
			return pyvalue.CallMethod(r, name, vals)
		}, nil
	}
	name, ok := call.Fn.(*pyast.Name)
	if !ok {
		fn, err := bc.compileExpr(call.Fn)
		if err != nil {
			return nil, err
		}
		args, err := bc.compileExprs(call.Args)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			fnv, err := fn(fr)
			if err != nil {
				return nil, err
			}
			f, ok := fnv.(*pyvalue.Func)
			if !ok {
				return nil, pyvalue.Raise(pyvalue.ExcTypeError, "%q object is not callable", pyvalue.TypeName(fnv))
			}
			vals, err := evalAllB(fr, args)
			if err != nil {
				return nil, err
			}
			return f.Call(vals)
		}, nil
	}
	// Bound local shadows builtins.
	if s, bound := bc.slots[name.Ident]; bound {
		args, err := bc.compileExprs(call.Args)
		if err != nil {
			return nil, err
		}
		return func(fr *bframe) (pyvalue.Value, error) {
			fnv := fr.slots[s]
			f, ok := fnv.(*pyvalue.Func)
			if !ok {
				return nil, pyvalue.Raise(pyvalue.ExcTypeError, "%q object is not callable", pyvalue.TypeName(fnv))
			}
			vals, err := evalAllB(fr, args)
			if err != nil {
				return nil, err
			}
			return f.Call(vals)
		}, nil
	}
	if v, bound := bc.ip.Globals[name.Ident]; bound {
		if f, isFunc := v.(*pyvalue.Func); isFunc {
			args, err := bc.compileExprs(call.Args)
			if err != nil {
				return nil, err
			}
			return func(fr *bframe) (pyvalue.Value, error) {
				vals, err := evalAllB(fr, args)
				if err != nil {
					return nil, err
				}
				return f.Call(vals)
			}, nil
		}
	}
	args, err := bc.compileExprs(call.Args)
	if err != nil {
		return nil, err
	}
	ident := name.Ident
	astCall := call
	return func(fr *bframe) (pyvalue.Value, error) {
		vals, err := evalAllB(fr, args)
		if err != nil {
			return nil, err
		}
		e := &env{ip: fr.ip, vars: map[string]pyvalue.Value{}}
		return e.callBuiltin(ident, vals, astCall)
	}, nil
}
