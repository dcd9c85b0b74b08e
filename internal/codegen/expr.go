package codegen

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// expr compiles one expression. Nodes recorded as typing failures
// compile into exception exits.
func (c *compiler) expr(x pyast.Expr) (exprFn, error) {
	if exit := c.failedExit(x); exit != nil {
		return exit, nil
	}
	if fn, ok := c.flowFold(x); ok {
		return fn, nil
	}
	switch x := x.(type) {
	// Literal closures capture the scalar, not an 80-byte Slot: a
	// compiled plan keeps every one of them.
	case *pyast.NumLit:
		if x.IsFloat {
			f := x.F
			return func(fr *Frame) (rows.Slot, ECode) { return rows.F64(f), 0 }, nil
		}
		n := x.I
		return func(fr *Frame) (rows.Slot, ECode) { return rows.I64(n), 0 }, nil
	case *pyast.StrLit:
		s := x.S
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Str(s), 0 }, nil
	case *pyast.BoolLit:
		b := x.B
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Bool(b), 0 }, nil
	case *pyast.NoneLit:
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Null(), 0 }, nil
	case *pyast.Name:
		if s, ok := c.slots[x.Ident]; ok {
			return func(fr *Frame) (rows.Slot, ECode) {
				v := fr.Slots[s]
				if v.Tag == types.KindInvalid {
					return rows.Slot{}, pyvalue.ExcNameError
				}
				return v, 0
			}, nil
		}
		if g, ok := c.globals[x.Ident]; ok {
			return func(fr *Frame) (rows.Slot, ECode) { return g, 0 }, nil
		}
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, pyvalue.ExcNameError }, nil
	case *pyast.BinOp:
		l, err := c.expr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(x.Right)
		if err != nil {
			return nil, err
		}
		return c.binOp(x.Op, l, r, x.Left, x.Right, x.Left.Type(), x.Right.Type(), x.Type())
	case *pyast.UnaryOp:
		return c.unaryOp(x)
	case *pyast.Compare:
		return c.compare(x)
	case *pyast.BoolOp:
		return c.boolOp(x)
	case *pyast.IfExpr:
		dead := c.info.Dead[x]
		if dead == inference.DeadNone {
			if d := c.flowDead(x); d != inference.DeadNone {
				dead = d
				c.stats.BranchesPruned++
			}
		}
		switch dead {
		case inference.DeadThen:
			return c.expr(x.Else)
		case inference.DeadElse:
			return c.expr(x.Then)
		}
		cond, err := c.truthExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.expr(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.expr(x.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			t, ec := cond(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if t {
				return then(fr)
			}
			return els(fr)
		}, nil
	case *pyast.Subscript:
		return c.subscript(x)
	case *pyast.Slice:
		return c.slice(x)
	case *pyast.TupleLit:
		elts, err := c.exprs(x.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			seq := make([]rows.Slot, len(elts))
			for i, e := range elts {
				v, ec := e(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				seq[i] = v
			}
			return rows.Tuple(seq), 0
		}, nil
	case *pyast.ListLit:
		elts, err := c.exprs(x.Elts)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			seq := make([]rows.Slot, len(elts))
			for i, e := range elts {
				v, ec := e(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				seq[i] = v
			}
			return rows.List(seq), 0
		}, nil
	case *pyast.DictLit:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			lit, ok := k.(*pyast.StrLit)
			if !ok {
				return nil, fmt.Errorf("codegen: non-constant dict key survived inference")
			}
			keys[i] = lit.S
		}
		vals, err := c.exprs(x.Vals)
		if err != nil {
			return nil, err
		}
		marker := rows.DictKeys(keys)
		return func(fr *Frame) (rows.Slot, ECode) {
			// Fast-path dicts are only produced to be consumed as row
			// outputs; represent as a tuple slot with attached names via
			// boxed dict only when escaping. The engine unwraps dict
			// returns by key order, so a tuple with parallel keys
			// suffices.
			seq := make([]rows.Slot, len(vals))
			for i, e := range vals {
				v, ec := e(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				seq[i] = v
			}
			return rows.Slot{Tag: types.KindDict, Seq: seq, Obj: marker}, 0
		}, nil
	case *pyast.ListComp:
		return c.listComp(x)
	case *pyast.Call:
		return c.call(x)
	default:
		return nil, fmt.Errorf("codegen: unsupported expression %T survived inference", x)
	}
}

func (c *compiler) exprs(xs []pyast.Expr) ([]exprFn, error) {
	out := make([]exprFn, len(xs))
	for i, x := range xs {
		e, err := c.expr(x)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// truthExpr compiles an expression into a Python-truthiness test.
func (c *compiler) truthExpr(x pyast.Expr) (func(fr *Frame) (bool, ECode), error) {
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	if t.IsOption() && c.flowNonNull(x) {
		// Null-check elision: the Option value is proven non-null here,
		// so truthiness dispatches on the unwrapped kind directly.
		t = t.Unwrap()
		c.stats.ChecksElided++
	}
	if c.opts.Specialize {
		// Monomorphic truthiness for the kinds no narrower kind widens
		// into; an i64 or f64 value may hold a bool or an int.
		switch t.Kind() {
		case types.KindBool:
			return func(fr *Frame) (bool, ECode) {
				v, ec := e(fr)
				return v.B, ec
			}, nil
		case types.KindStr:
			return func(fr *Frame) (bool, ECode) {
				v, ec := e(fr)
				return v.S != "", ec
			}, nil
		case types.KindNull:
			return func(fr *Frame) (bool, ECode) {
				_, ec := e(fr)
				return false, ec
			}, nil
		}
	}
	return func(fr *Frame) (bool, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return false, ec
		}
		return v.Truth(), 0
	}, nil
}

// intExpr compiles an expression guaranteed by typing to be int-like into
// an I64-slot producer: bools coerce (an i64-typed value may hold one),
// None raises TypeError.
func (c *compiler) intExpr(x pyast.Expr) (exprFn, error) {
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (rows.Slot, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		switch v.Tag {
		case types.KindI64:
			return v, 0
		case types.KindBool:
			if v.B {
				return rows.I64(1), 0
			}
			return rows.I64(0), 0
		default:
			return rows.Slot{}, pyvalue.ExcTypeError
		}
	}, nil
}

func (c *compiler) unaryOp(x *pyast.UnaryOp) (exprFn, error) {
	switch x.Op {
	case "not":
		inner, err := c.truthExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			t, ec := inner(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Bool(!t), 0
		}, nil
	case "-", "+", "~":
		sub, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := sub(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			switch v.Tag {
			case types.KindI64:
				switch op {
				case "-":
					return rows.I64(-v.I), 0
				case "+":
					return v, 0
				default:
					return rows.I64(^v.I), 0
				}
			case types.KindBool:
				n := int64(0)
				if v.B {
					n = 1
				}
				switch op {
				case "-":
					return rows.I64(-n), 0
				case "+":
					return rows.I64(n), 0
				default:
					return rows.I64(^n), 0
				}
			case types.KindF64:
				if op == "~" {
					return rows.Slot{}, pyvalue.ExcTypeError
				}
				if op == "-" {
					return rows.F64(-v.F), 0
				}
				return v, 0
			default:
				return rows.Slot{}, pyvalue.ExcTypeError
			}
		}, nil
	default:
		return nil, fmt.Errorf("codegen: unary %q", x.Op)
	}
}

func (c *compiler) boolOp(x *pyast.BoolOp) (exprFn, error) {
	subs, err := c.exprs(x.Xs)
	if err != nil {
		return nil, err
	}
	isAnd := x.Op == "and"
	return func(fr *Frame) (rows.Slot, ECode) {
		var v rows.Slot
		var ec ECode
		for i, sub := range subs {
			v, ec = sub(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if i == len(subs)-1 {
				break
			}
			t := v.Truth()
			if isAnd && !t {
				return v, 0
			}
			if !isAnd && t {
				return v, 0
			}
		}
		return v, 0
	}, nil
}

func (c *compiler) subscript(x *pyast.Subscript) (exprFn, error) {
	// Row column access resolved by inference: a direct slice load.
	if x.RowIdx >= 0 {
		base, err := c.expr(x.X)
		if err != nil {
			return nil, err
		}
		idx := x.RowIdx
		return func(fr *Frame) (rows.Slot, ECode) {
			row, ec := base(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if idx >= len(row.Seq) {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			return row.Seq[idx], 0
		}, nil
	}
	cont, err := c.expr(x.X)
	if err != nil {
		return nil, err
	}
	ct := x.X.Type().Unwrap()
	var at func(fr *Frame) (rows.Slot, int64, ECode)
	switch ct.Kind() {
	case types.KindStr, types.KindList, types.KindTuple, types.KindMatch:
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		// The container, then the index, then the checks on both:
		// Python's order, so None[int(',')] raises ValueError.
		at = func(fr *Frame) (rows.Slot, int64, ECode) {
			s, ec := cont(fr)
			if ec != 0 {
				return s, 0, ec
			}
			iv, ec := idx(fr)
			return s, iv.I, ec
		}
	}
	switch ct.Kind() {
	case types.KindStr:
		return func(fr *Frame) (rows.Slot, ECode) {
			s, i, ec := at(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if s.Tag != types.KindStr {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			ch, ok := strIndex(s.S, i)
			if !ok {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			return rows.Str(ch), 0
		}, nil
	case types.KindList, types.KindTuple:
		return func(fr *Frame) (rows.Slot, ECode) {
			s, i, ec := at(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if s.Tag != types.KindList && s.Tag != types.KindTuple {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			n := int64(len(s.Seq))
			if i < 0 {
				i += n
			}
			if i < 0 || i >= n {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			return s.Seq[i], 0
		}, nil
	case types.KindMatch:
		return func(fr *Frame) (rows.Slot, ECode) {
			s, i, ec := at(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			m, ok := s.Obj.(*pyvalue.Match)
			if !ok {
				return rows.Slot{}, pyvalue.ExcTypeError // None is not subscriptable
			}
			if i < 0 || int(i) >= len(m.Groups) {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			if !m.Present[i] {
				// Normal-case typing says Str; an absent group retries on
				// the general path, which yields None (§4.3).
				return rows.Slot{}, pyvalue.ExcUnsupported
			}
			return rows.Str(m.Groups[i]), 0
		}, nil
	case types.KindDict:
		lit, ok := x.Index.(*pyast.StrLit)
		if !ok {
			return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, pyvalue.ExcUnsupported }, nil
		}
		key := lit.S
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := cont(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if keys, ok := rows.DictSlotKeys(s); ok {
				for i, k := range keys {
					if k == key {
						return s.Seq[i], 0
					}
				}
				return rows.Slot{}, pyvalue.ExcKeyError
			}
			if s.Tag == types.KindNull {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			return rows.Slot{}, pyvalue.ExcUnsupported
		}, nil
	case types.KindNull:
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, pyvalue.ExcTypeError }, nil
	default:
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, pyvalue.ExcUnsupported }, nil
	}
}

func (c *compiler) slice(x *pyast.Slice) (exprFn, error) {
	cont, err := c.expr(x.X)
	if err != nil {
		return nil, err
	}
	bound := func(b pyast.Expr) (exprFn, error) {
		if b == nil {
			return nil, nil
		}
		return c.expr(b)
	}
	lo, err := bound(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := bound(x.Hi)
	if err != nil {
		return nil, err
	}
	step, err := bound(x.Step)
	if err != nil {
		return nil, err
	}
	evalBound := func(fr *Frame, b exprFn) (*int64, ECode) {
		if b == nil {
			return nil, 0
		}
		v, ec := b(fr)
		if ec != 0 || v.Tag == types.KindNull {
			return nil, ec // s[None:] is s[:]
		}
		n, ok := slotI64(v)
		if !ok {
			return nil, pyvalue.ExcTypeError
		}
		return &n, 0
	}
	isStr := x.X.Type().Unwrap().Kind() == types.KindStr
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := cont(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		l, ec := evalBound(fr, lo)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		h, ec := evalBound(fr, hi)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		stp, ec := evalBound(fr, step)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		st := int64(1)
		if stp != nil {
			st = *stp
			if st == 0 {
				return rows.Slot{}, pyvalue.ExcValueError
			}
		}
		if isStr && s.Tag == types.KindStr {
			n := int64(len(s.S))
			start, stop := pyvalue.SliceBounds(l, h, st, n)
			if st == 1 {
				if start >= stop {
					return rows.Str(""), 0
				}
				return rows.Str(s.S[start:stop]), 0
			}
			buf := make([]byte, 0, 8)
			for i := start; (st > 0 && i < stop) || (st < 0 && i > stop); i += st {
				buf = append(buf, s.S[i])
			}
			return rows.Str(string(buf)), 0
		}
		if s.Tag == types.KindList || s.Tag == types.KindTuple {
			n := int64(len(s.Seq))
			start, stop := pyvalue.SliceBounds(l, h, st, n)
			var out []rows.Slot
			for i := start; (st > 0 && i < stop) || (st < 0 && i > stop); i += st {
				out = append(out, s.Seq[i])
			}
			if s.Tag == types.KindTuple {
				return rows.Tuple(out), 0
			}
			return rows.List(out), 0
		}
		if s.Tag == types.KindNull {
			return rows.Slot{}, pyvalue.ExcTypeError
		}
		return rows.Slot{}, pyvalue.ExcUnsupported
	}, nil
}

func (c *compiler) listComp(x *pyast.ListComp) (exprFn, error) {
	vslot := c.slot(x.Var)
	var cond func(fr *Frame) (bool, ECode)
	var err error
	if x.Cond != nil {
		cond, err = c.truthExpr(x.Cond)
		if err != nil {
			return nil, err
		}
	}
	elt, err := c.expr(x.Elt)
	if err != nil {
		return nil, err
	}
	// range specialization.
	if rng, ok := rangeCall(x.Iter); ok {
		bounds, err := c.rangeBounds(rng)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			start, stop, step, ec := bounds(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			var out []rows.Slot
			for i := start; (step > 0 && i < stop) || (step < 0 && i > stop); i += step {
				fr.Slots[vslot] = rows.I64(i)
				if cond != nil {
					t, ec := cond(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if !t {
						continue
					}
				}
				v, ec := elt(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				out = append(out, v)
			}
			return rows.List(out), 0
		}, nil
	}
	iter, err := c.expr(x.Iter)
	if err != nil {
		return nil, err
	}
	iterT := x.Iter.Type().Unwrap()
	return func(fr *Frame) (rows.Slot, ECode) {
		it, ec := iter(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		elems, ec := iterateSlot(it, iterT)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		out := make([]rows.Slot, 0, len(elems))
		for _, el := range elems {
			fr.Slots[vslot] = el
			if cond != nil {
				t, ec := cond(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				if !t {
					continue
				}
			}
			v, ec := elt(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			out = append(out, v)
		}
		return rows.List(out), 0
	}, nil
}
