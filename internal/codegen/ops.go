package codegen

import (
	"cmp"
	"math"
	"strings"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// boxedBinOp is the non-specialized fallback: box operands, dispatch
// through pyvalue, unbox the result. It is what "LLVM optimizers off"
// compiles to in the Fig. 11 ablation.
func boxedBinOp(op pyvalue.Op, l, r exprFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		a, ec := l(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		b, ec := r(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		return boxedResult(pyvalue.Binary(op, a.Value(), b.Value()))
	}
}

// boxedUnary is boxedBinOp's unary twin.
func boxedUnary(op pyvalue.Op, sub exprFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		v, ec := sub(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		return boxedResult(pyvalue.Unary(op, v.Value()))
	}
}

// boxedResult is a boxed operator's outcome as a Slot and a code.
func boxedResult(v pyvalue.Value, err error) (rows.Slot, ECode) {
	if err != nil {
		return rows.Slot{}, pyvalue.KindOf(err)
	}
	return rows.FromValue(v), 0
}

type strFn = func(*Frame) (string, ECode)

// asStr wraps e (typed str, possibly optional) into a string producer.
// A None at runtime raises ec (TypeError by default; AttributeError for
// method receivers).
func asStr(e exprFn, t types.Type, onNull ECode) strFn {
	if !t.IsOption() && t.Kind() == types.KindStr {
		return func(fr *Frame) (string, ECode) {
			v, ec := e(fr)
			return v.S, ec
		}
	}
	return func(fr *Frame) (string, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return "", ec
		}
		if v.Tag != types.KindStr {
			return "", onNull
		}
		return v.S, 0
	}
}

// intOp reports whether op over operands typed lt and rt, with result
// type resT, is an int operator: specialized, it computes on the
// operands' i64 forms.
func (c *compiler) intOp(op pyvalue.Op, lt, rt, resT types.Type) bool {
	switch {
	case !c.opts.Specialize:
		return false
	case op.IntOnly():
		return true
	}
	return op != pyvalue.OpDiv && resT.Unwrap().Kind() == types.KindI64 && lt.Unwrap().IsNumeric() && rt.Unwrap().IsNumeric()
}

// ints evaluates l, then r, and only then raises TypeError for an operand
// that is not an int: Python evaluates both operands before the operator
// raises on their types, so `None + (1 // 0)` raises ZeroDivisionError.
func ints(fr *Frame, l, r i64Fn) (a, b int64, ec ECode) {
	a, ec = l(fr)
	if ec != 0 {
		if ec == excOperand {
			if _, ec = r(fr); ec == 0 || ec == excOperand {
				ec = pyvalue.ExcTypeError
			}
		}
		return 0, 0, ec
	}
	b, ec = r(fr)
	return a, b, operandErr(ec)
}

// intBinOp compiles an int operator over its operands' i64 forms. lx and
// rx let dataflow facts elide the zero-divisor and negative-exponent
// tests the values provably cannot trip.
func (c *compiler) intBinOp(op pyvalue.Op, lx, rx pyast.Expr) (i64Fn, error) {
	l, err := c.i64(lx)
	if err != nil {
		return nil, err
	}
	r, err := c.i64(rx)
	if err != nil {
		return nil, err
	}
	switch op {
	case pyvalue.OpAdd:
		return func(fr *Frame) (int64, ECode) {
			a, b, ec := ints(fr, l, r)
			return a + b, ec
		}, nil
	case pyvalue.OpSub:
		return func(fr *Frame) (int64, ECode) {
			a, b, ec := ints(fr, l, r)
			return a - b, ec
		}, nil
	case pyvalue.OpMul:
		return func(fr *Frame) (int64, ECode) {
			a, b, ec := ints(fr, l, r)
			return a * b, ec
		}, nil
	case pyvalue.OpFloorDiv, pyvalue.OpMod:
		checkZero := c.checkZero(rx)
		mod := op == pyvalue.OpMod
		return func(fr *Frame) (int64, ECode) {
			a, b, ec := ints(fr, l, r)
			switch {
			case ec != 0:
				return 0, ec
			case checkZero && b == 0:
				return 0, pyvalue.ExcZeroDivisionError
			case mod:
				return pyvalue.FloorModInt(a, b), 0
			}
			return pyvalue.FloorDivInt(a, b), 0
		}, nil
	case pyvalue.OpPow:
		checkNeg := !c.flowNonNegative(rx)
		if !checkNeg {
			c.stats.ChecksElided++
		}
		return func(fr *Frame) (int64, ECode) {
			a, b, ec := ints(fr, l, r)
			switch {
			case ec != 0:
				return 0, ec
			case checkNeg && b < 0:
				// int**negative is a float in Python: off the
				// normal-case type, retried on the general path.
				return 0, pyvalue.ExcUnsupported
			}
			return pyvalue.IPow(a, b), 0
		}, nil
	}
	// The bit operators are rare in UDFs: one closure switches on them.
	return func(fr *Frame) (int64, ECode) {
		a, b, ec := ints(fr, l, r)
		switch {
		case ec != 0:
			return 0, ec
		case op == pyvalue.OpBitAnd:
			return a & b, 0
		case op == pyvalue.OpBitOr:
			return a | b, 0
		case op == pyvalue.OpBitXor:
			return a ^ b, 0
		}
		return pyvalue.ShiftInt(op == pyvalue.OpLShift, a, b)
	}, nil
}

// binOp compiles a binary operator into a Slot producer: an int operator
// boxes its i64 form; the rest compute on Slots. lx/rx are the operand
// AST nodes; they let dataflow facts elide runtime checks the values
// provably cannot trip. A result of the operator's value is only
// meaningful when its code is 0.
func (c *compiler) binOp(op pyvalue.Op, lx, rx pyast.Expr, lt, rt, resT types.Type) (exprFn, error) {
	if c.intOp(op, lt, rt, resT) {
		return boxI64(c.intBinOp(op, lx, rx))
	}
	l, err := c.expr(lx)
	if err != nil {
		return nil, err
	}
	r, err := c.expr(rx)
	if err != nil {
		return nil, err
	}
	if !c.opts.Specialize {
		return boxedBinOp(op, l, r), nil
	}
	lu, ru := lt.Unwrap(), rt.Unwrap()
	numeric := lu.IsNumeric() && ru.IsNumeric()
	switch {
	case numeric && !op.IntOnly():
		return numOp(op, l, r, op.Divides() && c.checkZero(rx)), nil
	case op == pyvalue.OpAdd && lu.Kind() == types.KindStr && ru.Kind() == types.KindStr:
		return func(fr *Frame) (rows.Slot, ECode) {
			x, ec := l(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			y, ec := r(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if x.Tag != types.KindStr || y.Tag != types.KindStr {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			return rows.Str(fr.intern(appendConcat(fr.Scratch[:0], x.S, y.S))), 0
		}, nil
	case op == pyvalue.OpMul && lu.Kind() == types.KindStr && ru.IsNumeric():
		return func(fr *Frame) (rows.Slot, ECode) {
			x, ec := l(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			y, ec := r(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			n, nec := refI64(&y)
			if x.Tag != types.KindStr || nec != 0 {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			if n <= 0 {
				return rows.Str(""), 0
			}
			return rows.Str(strings.Repeat(x.S, int(n))), 0
		}, nil
	case op == pyvalue.OpMod && lu.Kind() == types.KindStr:
		// printf-style formatting: the shared formatter appends into
		// the frame's scratch buffer and the result is arena-interned,
		// so a hot-loop format pays only the operand boxing.
		return func(fr *Frame) (rows.Slot, ECode) {
			x, ec := l(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			y, ec := r(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if x.Tag != types.KindStr {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			out, err := pyvalue.AppendPercentFormat(fr.Scratch[:0], x.S, y.Value())
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			fr.Scratch = out[:0]
			return rows.Str(fr.Arena.Intern(out)), 0
		}, nil
	}
	return boxedBinOp(op, l, r), nil
}

// checkZero reports whether the divisor x needs its zero test: dataflow
// facts elide it where x provably cannot be zero.
func (c *compiler) checkZero(x pyast.Expr) bool {
	if c.flowNonZero(x) {
		c.stats.ChecksElided++
		return false
	}
	return true
}

// numOp is an f64-typed + - * / // % **. An f64-typed value may hold an
// int (the taken arm of `1 if c else 2.5`); two int operands compute as
// ints, as in Python and on the general path, every other pair through
// float64. checkZero keeps the zero-divisor test of the division family.
func numOp(op pyvalue.Op, l, r exprFn, checkZero bool) exprFn {
	f := floatKernel(op, checkZero)
	intPair := op != pyvalue.OpDiv // true division of two ints is a float in Python
	return func(fr *Frame) (rows.Slot, ECode) {
		x, ec := l(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		y, ec := r(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		if intPair && isIntTag(x.Tag) && isIntTag(y.Tag) {
			return boxedResult(pyvalue.Binary(op, x.Value(), y.Value()))
		}
		a, aok := slotF64(x)
		b, bok := slotF64(y)
		if !aok || !bok {
			return rows.Slot{}, pyvalue.ExcTypeError
		}
		return f(a, b)
	}
}

func isIntTag(t rows.Tag) bool { return t == types.KindI64 || t == types.KindBool }

// floatKernel is op over two float64s.
func floatKernel(op pyvalue.Op, checkZero bool) func(a, b float64) (rows.Slot, ECode) {
	switch op {
	case pyvalue.OpAdd:
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a + b), 0 }
	case pyvalue.OpSub:
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a - b), 0 }
	case pyvalue.OpMul:
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a * b), 0 }
	case pyvalue.OpPow:
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(math.Pow(a, b)), 0 }
	}
	return func(a, b float64) (rows.Slot, ECode) {
		switch {
		case checkZero && b == 0:
			return rows.Slot{}, pyvalue.ExcZeroDivisionError
		case op == pyvalue.OpDiv:
			return rows.F64(a / b), 0
		case op == pyvalue.OpFloorDiv:
			return rows.F64(math.Floor(a / b)), 0
		}
		return rows.F64(pyvalue.FloorModFloat(a, b)), 0
	}
}

// compare compiles a (possibly chained) comparison into a bool producer.
func (c *compiler) compare(x *pyast.Compare) (boolFn, error) {
	operands := append([]pyast.Expr{x.First}, x.Rest...)
	if c.intCompare(operands, x.Ops) {
		return c.compareInts(operands, x.Ops)
	}
	fns, err := c.exprs(operands)
	if err != nil {
		return nil, err
	}
	steps := make([]func(fr *Frame, a, b rows.Slot) (bool, ECode), len(x.Ops))
	for i, op := range x.Ops {
		lt := operands[i].Type()
		rt := operands[i+1].Type()
		step, err := c.compareStep(op, lt, rt)
		if err != nil {
			return nil, err
		}
		steps[i] = step
	}
	return func(fr *Frame) (bool, ECode) {
		left, ec := fns[0](fr)
		if ec != 0 {
			return false, ec
		}
		for i, step := range steps {
			right, ec := fns[i+1](fr)
			if ec != 0 {
				return false, ec
			}
			ok, ec := step(fr, left, right)
			if ec != 0 || !ok {
				return false, ec
			}
			left = right
		}
		return true, 0
	}, nil
}

// cmpMask is the set of cmp.Compare outcomes (bit outcome+1) each
// ordering or equality test accepts; 0 for the other comparisons.
var cmpMask = [pyvalue.NumOps]uint8{pyvalue.OpLt: 1, pyvalue.OpEq: 2, pyvalue.OpLe: 3, pyvalue.OpGt: 4, pyvalue.OpNe: 5, pyvalue.OpGe: 6}

// intCompare reports whether a comparison chain compares ints: every
// operand a non-Option int or bool, every operator an equality or an
// ordering.
func (c *compiler) intCompare(operands []pyast.Expr, ops []pyvalue.Op) bool {
	if !c.opts.Specialize {
		return false
	}
	for _, x := range operands {
		t := x.Type()
		if t.IsOption() || t.Kind() != types.KindI64 && t.Kind() != types.KindBool {
			return false
		}
	}
	for _, op := range ops {
		if cmpMask[op] == 0 {
			return false
		}
	}
	return true
}

// compareInts compiles an int comparison chain over its operands' i64
// forms. Two ints order exactly, as in Python: float64 would merge
// neighbours beyond 2^53.
func (c *compiler) compareInts(operands []pyast.Expr, ops []pyvalue.Op) (boolFn, error) {
	fns := make([]i64Fn, len(operands))
	for i, x := range operands {
		f, err := c.i64(x)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	masks := make([]uint8, len(ops))
	for i, op := range ops {
		masks[i] = cmpMask[op]
	}
	return func(fr *Frame) (bool, ECode) {
		a, ec := fns[0](fr)
		if ec != 0 && ec != excOperand {
			return false, ec
		}
		for i, mask := range masks {
			b, bec := fns[i+1](fr)
			switch {
			case bec != 0 && bec != excOperand:
				return false, bec
			case ec != 0 || bec != 0:
				return false, pyvalue.ExcTypeError
			case mask>>(cmp.Compare(a, b)+1)&1 == 0:
				return false, 0
			}
			a = b
		}
		return true, 0
	}, nil
}

func (c *compiler) compareStep(op pyvalue.Op, lt, rt types.Type) (func(fr *Frame, a, b rows.Slot) (bool, ECode), error) {
	boxed := func(fr *Frame, a, b rows.Slot) (bool, ECode) {
		v, err := pyvalue.Compare(op, a.Value(), b.Value())
		if err != nil {
			return false, pyvalue.KindOf(err)
		}
		return pyvalue.Truth(v), 0
	}
	if !c.opts.Specialize {
		return boxed, nil
	}
	lu, ru := lt.Unwrap(), rt.Unwrap()
	switch op {
	case pyvalue.OpEq, pyvalue.OpNe:
		neg := op == pyvalue.OpNe
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			return rows.Equal(a, b) != neg, 0
		}, nil
	case pyvalue.OpIs, pyvalue.OpIsNot:
		neg := op == pyvalue.OpIsNot
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			same := a.Tag == types.KindNull && b.Tag == types.KindNull ||
				(a.Tag == b.Tag && rows.Equal(a, b))
			return same != neg, 0
		}, nil
	case pyvalue.OpIn, pyvalue.OpNotIn:
		neg := op == pyvalue.OpNotIn
		if ru.Kind() == types.KindStr {
			return strStep(op), nil
		}
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			if b.Tag != types.KindList && b.Tag != types.KindTuple {
				return boxed(fr, a, b)
			}
			found := false
			for _, el := range b.Seq {
				if rows.Equal(el, a) {
					found = true
					break
				}
			}
			return found != neg, 0
		}, nil
	case pyvalue.OpLt, pyvalue.OpLe, pyvalue.OpGt, pyvalue.OpGe:
		if lu.IsNumeric() && ru.IsNumeric() {
			return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
				if a.Tag == types.KindI64 && b.Tag == types.KindI64 {
					// Two ints order exactly, as in Python: float64 would
					// merge neighbours beyond 2^53.
					return cmpOrdered(op, a.I, b.I), 0
				}
				af, aok := slotF64(a)
				bf, bok := slotF64(b)
				if !aok || !bok {
					return false, pyvalue.ExcTypeError
				}
				return cmpOrdered(op, af, bf), 0
			}, nil
		}
		if lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			return strStep(op), nil
		}
	}
	return boxed, nil
}

// strStep is one string comparison or substring test, through the
// helper the vector kernels share (strhelp.go).
func strStep(op pyvalue.Op) func(fr *Frame, a, b rows.Slot) (bool, ECode) {
	return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
		if a.Tag != types.KindStr || b.Tag != types.KindStr {
			return false, pyvalue.ExcTypeError
		}
		return strCompare(op, a.S, b.S), 0
	}
}

// cmpOrdered evaluates a op b for an ordering or an equality test.
func cmpOrdered[T cmp.Ordered](op pyvalue.Op, a, b T) bool {
	switch op {
	case pyvalue.OpLt:
		return a < b
	case pyvalue.OpLe:
		return a <= b
	case pyvalue.OpGt:
		return a > b
	case pyvalue.OpGe:
		return a >= b
	case pyvalue.OpEq:
		return a == b
	}
	return a != b
}

func slotF64(s rows.Slot) (float64, bool) {
	switch s.Tag {
	case types.KindI64:
		return float64(s.I), true
	case types.KindF64:
		return s.F, true
	case types.KindBool:
		if s.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}
