package codegen

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// A node compiles through the entry for the form its consumer needs:
// expr (a rows.Slot), i64 (an int64) or truth (a bool). Each entry asks
// decided first, then emits the node's own form when it has one, else
// compiles it by expr and converts on the edge (asI64, Slot.Truth). A
// parent calls one entry per child, so each node compiles once.

// expr compiles one expression into a Slot producer.
func (c *compiler) expr(x pyast.Expr) (exprFn, error) {
	if v, ec, ok := c.decided(x); ok {
		if ec != 0 {
			return exitFn(ec), nil
		}
		return func(fr *Frame) (rows.Slot, ECode) { return v, 0 }, nil
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
				p := &fr.Slots[s]
				if p.Tag == types.KindInvalid {
					return rows.Slot{}, pyvalue.ExcNameError
				}
				return *p, 0
			}, nil
		}
		if g, ok := c.globals[x.Ident]; ok {
			return func(fr *Frame) (rows.Slot, ECode) { return g, 0 }, nil
		}
		return exitFn(pyvalue.ExcNameError), nil
	case *pyast.BinOp:
		if _, failed := c.info.Failed[x]; failed {
			ops, err := c.exprs([]pyast.Expr{x.Left, x.Right})
			if err != nil {
				return nil, err
			}
			return raises(boxedBinOp(x.Op, ops[0], ops[1])), nil
		}
		return c.binOp(x.Op, x.Left, x.Right, x.Left.Type(), x.Right.Type(), x.Type())
	case *pyast.UnaryOp:
		_, failed := c.info.Failed[x]
		switch {
		case failed:
			sub, err := c.expr(x.X)
			return raises(boxedUnary(x.Op, sub)), err
		case x.Op == pyvalue.OpNot:
			return boxBool(c.not(x))
		case c.intUnary(x):
			return boxI64(c.i64Unary(x))
		}
		return c.unaryOp(x)
	case *pyast.Compare:
		return boxBool(c.compare(x))
	case *pyast.BoolOp:
		if c.opts.Specialize && !x.Type().IsOption() && x.Type().Kind() == types.KindBool {
			return boxBool(c.boolOp(x))
		}
		return c.boolOpValue(x)
	case *pyast.IfExpr:
		return ifExpr(c, x, c.expr)
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

// raises compiles an operator inference rejected, given its boxed form:
// the operands evaluate first, as in Python, and the operator raises
// what the boxed path raises on their values. A value instead means
// inference's verdict was too coarse for this row (an f64-typed operand
// may hold an int), and the row retries on the general path.
func raises(boxed exprFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		if _, ec := boxed(fr); ec != 0 {
			return rows.Slot{}, ec
		}
		return rows.Slot{}, pyvalue.ExcUnsupported
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

// ifExpr compiles a conditional expression in the form its arms are
// compiled by arm; an arm dead by inference or the facts is not compiled.
func ifExpr[T any](c *compiler, x *pyast.IfExpr, arm func(pyast.Expr) (func(*Frame) (T, ECode), error)) (func(*Frame) (T, ECode), error) {
	dead := c.info.Dead[x]
	if dead == inference.DeadNone {
		if d := c.flowDead(x); d != inference.DeadNone {
			dead = d
			c.stats.BranchesPruned++
		}
	}
	switch dead {
	case inference.DeadThen:
		return arm(x.Else)
	case inference.DeadElse:
		return arm(x.Then)
	}
	cond, err := c.truth(x.Cond)
	if err != nil {
		return nil, err
	}
	then, err := arm(x.Then)
	if err != nil {
		return nil, err
	}
	els, err := arm(x.Else)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (T, ECode) {
		t, ec := cond(fr)
		if ec != 0 {
			var zero T
			return zero, ec
		}
		if t {
			return then(fr)
		}
		return els(fr)
	}, nil
}

// excOperand is the code of an i64 form whose value is not an int or a
// bool (None): the operand evaluated, and its consumer raises TypeError
// once its other operands have evaluated too. It never leaves codegen.
const excOperand ECode = 0xff

// operandErr is ec with excOperand raised as TypeError.
func operandErr(ec ECode) ECode {
	if ec == excOperand {
		return pyvalue.ExcTypeError
	}
	return ec
}

// i64 compiles x, typed int or bool (or an Option of one), into an int64
// producer: a bool reads as 0 or 1 (an int-typed value may hold one), and
// any other value returns excOperand, which the consumer must handle.
func (c *compiler) i64(x pyast.Expr) (i64Fn, error) {
	// A failed operator compiles by expr (raises), not to an int form.
	if _, failed := c.info.Failed[x]; failed || !c.opts.Specialize {
		return c.unboxI64(x)
	}
	if v, ec, ok := c.decided(x); ok {
		n, nec := refI64(&v)
		if ec == 0 {
			ec = nec
		}
		return func(fr *Frame) (int64, ECode) { return n, ec }, nil
	}
	switch x := x.(type) {
	case *pyast.NumLit:
		if !x.IsFloat {
			n := x.I
			return func(fr *Frame) (int64, ECode) { return n, 0 }, nil
		}
	case *pyast.Name:
		if s, ok := c.slots[x.Ident]; ok {
			return func(fr *Frame) (int64, ECode) {
				p := &fr.Slots[s]
				if p.Tag == types.KindInvalid {
					return 0, pyvalue.ExcNameError
				}
				return refI64(p)
			}, nil
		}
		if g, ok := c.globals[x.Ident]; ok {
			n, ec := refI64(&g)
			return func(fr *Frame) (int64, ECode) { return n, ec }, nil
		}
	case *pyast.Subscript:
		if s, idx, ok := c.column(x); ok {
			return func(fr *Frame) (int64, ECode) {
				row := &fr.Slots[s]
				if idx >= len(row.Seq) {
					return 0, columnErr(row)
				}
				return refI64(&row.Seq[idx])
			}, nil
		}
	case *pyast.BinOp:
		if c.intOp(x.Op, x.Left.Type(), x.Right.Type(), x.Type()) {
			return c.intBinOp(x.Op, x.Left, x.Right)
		}
	case *pyast.UnaryOp:
		if c.intUnary(x) {
			return c.i64Unary(x)
		}
	case *pyast.IfExpr:
		return ifExpr(c, x, c.i64)
	}
	return c.unboxI64(x)
}

// unboxI64 compiles x through expr, unboxed on the edge.
func (c *compiler) unboxI64(x pyast.Expr) (i64Fn, error) {
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	return asI64(e), nil
}

// asI64 is the unbox edge: e's Slot read as an int64, excOperand when it
// holds neither an int nor a bool.
func asI64(e exprFn) i64Fn {
	return func(fr *Frame) (int64, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return 0, ec
		}
		return refI64(&v)
	}
}

// boxI64 and boxBool are the box edges: an int or bool form's value as a
// Slot, where it leaves int or bool code.
func boxI64(f i64Fn, err error) (exprFn, error) {
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (rows.Slot, ECode) {
		n, ec := f(fr)
		return rows.I64(n), ec
	}, nil
}

func boxBool(f boolFn, err error) (exprFn, error) {
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (rows.Slot, ECode) {
		b, ec := f(fr)
		return rows.Bool(b), ec
	}, nil
}

// refI64 reads an int-like slot in place.
func refI64(p *rows.Slot) (int64, ECode) {
	switch p.Tag {
	case types.KindI64:
		return p.I, 0
	case types.KindBool:
		return int64(b2i(p.B)), 0
	}
	return 0, excOperand
}

// column reports the frame slot and column index of x when x reads a
// column of a row local (r['a']) that its consumer can read in place.
func (c *compiler) column(x *pyast.Subscript) (slot, idx int, ok bool) {
	if x.RowIdx < 0 {
		return 0, 0, false
	}
	slot, ok = c.local(x.X)
	return slot, x.RowIdx, ok
}

// columnErr is the error of a column read past the end of row: the row
// local unbound, or too short.
func columnErr(row *rows.Slot) ECode {
	if row.Tag == types.KindInvalid {
		return pyvalue.ExcNameError
	}
	return pyvalue.ExcIndexError
}

// truth compiles x into a Python-truthiness test. Under Specialize a
// comparison, `not`, and/or and a conditional test natively; every other
// node tests its Slot.
func (c *compiler) truth(x pyast.Expr) (boolFn, error) {
	t := x.Type()
	if c.opts.Specialize && !t.IsOption() {
		if v, ec, ok := c.decided(x); ok {
			b := v.Truth()
			return func(fr *Frame) (bool, ECode) { return b, ec }, nil
		}
		switch x := x.(type) {
		case *pyast.Compare:
			return c.compare(x)
		case *pyast.BoolOp:
			return c.boolOp(x)
		case *pyast.IfExpr:
			return ifExpr(c, x, c.truth)
		case *pyast.UnaryOp:
			if x.Op == pyvalue.OpNot {
				return c.not(x)
			}
		}
	}
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
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

// not compiles `not x`.
func (c *compiler) not(x *pyast.UnaryOp) (boolFn, error) {
	inner, err := c.truth(x.X)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (bool, ECode) {
		t, ec := inner(fr)
		return !t, ec
	}, nil
}

// intUnary reports whether x is a specialized - + ~ over an int or a bool.
func (c *compiler) intUnary(x *pyast.UnaryOp) bool {
	k := x.X.Type().Unwrap().Kind()
	return c.opts.Specialize && x.Op != pyvalue.OpNot && (k == types.KindI64 || k == types.KindBool)
}

// i64Unary compiles - + ~ over an int operand.
func (c *compiler) i64Unary(x *pyast.UnaryOp) (i64Fn, error) {
	sub, err := c.i64(x.X)
	if err != nil {
		return nil, err
	}
	neg, inv := x.Op == pyvalue.OpSub, x.Op == pyvalue.OpInvert
	return func(fr *Frame) (int64, ECode) {
		n, ec := sub(fr)
		switch {
		case neg:
			n = -n
		case inv:
			n = ^n
		}
		return n, operandErr(ec)
	}, nil
}

// unaryOp compiles - + ~ over a float in place, and over anything else
// (every operand, unspecialized) boxed.
func (c *compiler) unaryOp(x *pyast.UnaryOp) (exprFn, error) {
	sub, err := c.expr(x.X)
	if err != nil || !c.opts.Specialize {
		return boxedUnary(x.Op, sub), err
	}
	op := x.Op
	return func(fr *Frame) (rows.Slot, ECode) {
		v, ec := sub(fr)
		switch {
		case ec != 0:
			return rows.Slot{}, ec
		case v.Tag == types.KindF64 && op != pyvalue.OpInvert:
			if op == pyvalue.OpSub {
				v.F = -v.F
			}
			return v, 0
		}
		return boxedResult(pyvalue.Unary(op, v.Value()))
	}, nil
}

// boolOp compiles the truth of `a and b` / `a or b`: the truth of the
// operand that decides it, the rest not evaluated.
func (c *compiler) boolOp(x *pyast.BoolOp) (boolFn, error) {
	subs := make([]boolFn, len(x.Xs))
	for i, sub := range x.Xs {
		f, err := c.truth(sub)
		if err != nil {
			return nil, err
		}
		subs[i] = f
	}
	isAnd := x.Op == pyvalue.OpAnd
	return func(fr *Frame) (bool, ECode) {
		for _, sub := range subs {
			t, ec := sub(fr)
			if ec != 0 {
				return false, ec
			}
			if t != isAnd {
				return t, 0
			}
		}
		return isAnd, 0
	}, nil
}

// boolOpValue compiles `a and b` / `a or b` as a value: the operand
// that decides it.
func (c *compiler) boolOpValue(x *pyast.BoolOp) (exprFn, error) {
	subs, err := c.exprs(x.Xs)
	if err != nil {
		return nil, err
	}
	isAnd := x.Op == pyvalue.OpAnd
	return func(fr *Frame) (rows.Slot, ECode) {
		var v rows.Slot
		var ec ECode
		for i, sub := range subs {
			if v, ec = sub(fr); ec != 0 {
				return rows.Slot{}, ec
			}
			if i < len(subs)-1 && v.Truth() != isAnd {
				return v, 0
			}
		}
		return v, 0
	}, nil
}

func (c *compiler) subscript(x *pyast.Subscript) (exprFn, error) {
	// Row column access resolved by inference: a direct slice load, in
	// place when the row is a local.
	if s, idx, ok := c.column(x); ok {
		return func(fr *Frame) (rows.Slot, ECode) {
			row := &fr.Slots[s]
			if idx >= len(row.Seq) {
				return rows.Slot{}, columnErr(row)
			}
			return row.Seq[idx], 0
		}, nil
	}
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
		idx, err := c.i64(x.Index)
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
			i, ec := idx(fr)
			return s, i, operandErr(ec)
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
	// evalBound returns the bound's value and whether it is given: a
	// pointer result would move every bound to the heap, once per call.
	evalBound := func(fr *Frame, b exprFn) (int64, bool, ECode) {
		if b == nil {
			return 0, false, 0
		}
		v, ec := b(fr)
		if ec != 0 || v.Tag == types.KindNull {
			return 0, false, ec // s[None:] is s[:]
		}
		n, ec := refI64(&v)
		return n, true, operandErr(ec)
	}
	isStr := x.X.Type().Unwrap().Kind() == types.KindStr
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := cont(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		l, hasL, ec := evalBound(fr, lo)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		h, hasH, ec := evalBound(fr, hi)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		st, hasSt, ec := evalBound(fr, step)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		if !hasSt {
			st = 1
		} else if st == 0 {
			return rows.Slot{}, pyvalue.ExcValueError
		}
		if isStr && s.Tag == types.KindStr {
			n := int64(len(s.S))
			start, stop := pyvalue.SliceBounds(givenBound(&l, hasL), givenBound(&h, hasH), st, n)
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
			start, stop := pyvalue.SliceBounds(givenBound(&l, hasL), givenBound(&h, hasH), st, n)
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

// givenBound passes a slice bound to pyvalue.SliceBounds (nil when the
// bound is not given); SliceBounds keeps neither pointer, so the bounds
// stay on the stack.
func givenBound(n *int64, given bool) *int64 {
	if given {
		return n
	}
	return nil
}

func (c *compiler) listComp(x *pyast.ListComp) (exprFn, error) {
	vslot := c.slot(x.Var)
	var cond func(fr *Frame) (bool, ECode)
	var err error
	if x.Cond != nil {
		cond, err = c.truth(x.Cond)
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
