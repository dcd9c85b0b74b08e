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
	case *pyast.NumLit:
		if x.IsFloat {
			s := rows.F64(x.F)
			return func(fr *Frame) (rows.Slot, ECode) { return s, 0 }, nil
		}
		s := rows.I64(x.I)
		return func(fr *Frame) (rows.Slot, ECode) { return s, 0 }, nil
	case *pyast.StrLit:
		s := rows.Str(x.S)
		return func(fr *Frame) (rows.Slot, ECode) { return s, 0 }, nil
	case *pyast.BoolLit:
		s := rows.Bool(x.B)
		return func(fr *Frame) (rows.Slot, ECode) { return s, 0 }, nil
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
			return rows.Slot{Tag: types.KindDict, Seq: seq, Obj: dictKeys(keys)}, 0
		}, nil
	case *pyast.ListComp:
		return c.listComp(x)
	case *pyast.Call:
		return c.call(x)
	default:
		return nil, fmt.Errorf("codegen: unsupported expression %T survived inference", x)
	}
}

// dictKeys wraps a key list as a boxed marker carried in the Obj field of
// dict slots produced on the fast path; the engine reads it to map dict
// returns onto output columns without round-tripping through boxed
// dicts.
func dictKeys(keys []string) pyvalue.Value {
	items := make([]pyvalue.Value, len(keys))
	for i, k := range keys {
		items[i] = pyvalue.Str(k)
	}
	return &pyvalue.Tuple{Items: items}
}

// DictSlotKeys extracts the column names of a fast-path dict slot.
func DictSlotKeys(s rows.Slot) ([]string, bool) {
	if s.Tag != types.KindDict || s.Obj == nil {
		return nil, false
	}
	t, ok := s.Obj.(*pyvalue.Tuple)
	if !ok {
		return nil, false
	}
	out := make([]string, len(t.Items))
	for i, it := range t.Items {
		str, ok := it.(pyvalue.Str)
		if !ok {
			return nil, false
		}
		out[i] = string(str)
	}
	return out, true
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
	if c.opts.Specialize && !c.nativeBail(x) {
		// Comparisons and scalar name tests — the bulk of filter and
		// branch conditions — produce the bool directly, no Slot.
		if cmp, ok := x.(*pyast.Compare); ok {
			if f, err := c.compareBool(cmp); err != nil {
				return nil, err
			} else if f != nil {
				return f, nil
			}
		}
		if nm, ok := x.(*pyast.Name); ok {
			if idx, ok := c.slots[nm.Ident]; ok {
				if t := nm.Type(); !t.IsOption() {
					if f := truthSlotFn(idx, t.Kind()); f != nil {
						return f, nil
					}
				}
			}
		}
	}
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
		// Monomorphic truthiness for the common scalar cases.
		switch t.Kind() {
		case types.KindBool:
			return func(fr *Frame) (bool, ECode) {
				v, ec := e(fr)
				return v.B, ec
			}, nil
		case types.KindI64:
			return func(fr *Frame) (bool, ECode) {
				v, ec := e(fr)
				return v.I != 0, ec
			}, nil
		case types.KindF64:
			return func(fr *Frame) (bool, ECode) {
				v, ec := e(fr)
				return v.F != 0, ec
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
// an I64-slot producer (bools coerce; Options null-check).
func (c *compiler) intExpr(x pyast.Expr) (exprFn, error) {
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	switch t.Kind() {
	case types.KindI64:
		return e, nil
	case types.KindBool:
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := e(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if v.B {
				return rows.I64(1), 0
			}
			return rows.I64(0), 0
		}, nil
	default:
		// Option[i64] and friends: runtime tag check.
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
			case types.KindNull:
				return rows.Slot{}, pyvalue.ExcTypeError
			default:
				return rows.Slot{}, pyvalue.ExcTypeError
			}
		}, nil
	}
}

func (c *compiler) unaryOp(x *pyast.UnaryOp) (exprFn, error) {
	sub, err := c.expr(x.X)
	if err != nil {
		return nil, err
	}
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
	// Row column access resolved by inference: a direct slice load. When
	// the row is a named frame slot the element is read through a
	// pointer, skipping the copy of the whole row Slot.
	if x.RowIdx >= 0 {
		if c.opts.Specialize {
			if el := c.rowElemAt(x); el != nil {
				return func(fr *Frame) (rows.Slot, ECode) {
					p, ec := el(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return *p, 0
				}, nil
			}
		}
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
	switch ct.Kind() {
	case types.KindStr:
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := cont(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if s.Tag != types.KindStr {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			iv, ec := idx(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			ch, ok := strIndex(s.S, iv.I)
			if !ok {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			return rows.Str(ch), 0
		}, nil
	case types.KindList, types.KindTuple:
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := cont(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if s.Tag != types.KindList && s.Tag != types.KindTuple {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			iv, ec := idx(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			i := iv.I
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
		idx, err := c.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := cont(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if s.Tag == types.KindNull {
				return rows.Slot{}, pyvalue.ExcTypeError // None is not subscriptable
			}
			m, ok := s.Obj.(*pyvalue.Match)
			if !ok {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			iv, ec := idx(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			i := iv.I
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
			if keys, ok := DictSlotKeys(s); ok {
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
		return c.intExpr(b)
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
		if ec != 0 {
			return nil, ec
		}
		n := v.I
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
