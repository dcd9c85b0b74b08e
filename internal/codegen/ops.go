package codegen

import (
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
func boxedBinOp(op string, l, r exprFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		a, ec := l(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		b, ec := r(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		v, err := applyBoxedOp(op, a.Value(), b.Value())
		if err != nil {
			return rows.Slot{}, pyvalue.KindOf(err)
		}
		return rows.FromValue(v), 0
	}
}

func applyBoxedOp(op string, a, b pyvalue.Value) (pyvalue.Value, error) {
	switch op {
	case "+":
		return pyvalue.Add(a, b)
	case "-":
		return pyvalue.Sub(a, b)
	case "*":
		return pyvalue.Mul(a, b)
	case "/":
		return pyvalue.TrueDiv(a, b)
	case "//":
		return pyvalue.FloorDiv(a, b)
	case "%":
		return pyvalue.Mod(a, b)
	case "**":
		return pyvalue.Pow(a, b)
	case "&":
		return pyvalue.BitAnd(a, b)
	case "|":
		return pyvalue.BitOr(a, b)
	case "^":
		return pyvalue.BitXor(a, b)
	case "<<":
		return pyvalue.LShift(a, b)
	case ">>":
		return pyvalue.RShift(a, b)
	default:
		return nil, pyvalue.Raise(pyvalue.ExcUnsupported, "operator %q", op)
	}
}

type i64Fn = func(*Frame) (int64, ECode)
type strFn = func(*Frame) (string, ECode)

// asI64 wraps e (typed int-like, possibly optional) into an int64
// producer. It dispatches on the slot's tag rather than the static type:
// a value typed i64 may hold a bool (bool < i64 in the type lattice).
func asI64(e exprFn) i64Fn {
	return func(fr *Frame) (int64, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return 0, ec
		}
		n, ok := slotI64(v)
		if !ok {
			return 0, pyvalue.ExcTypeError
		}
		return n, 0
	}
}

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

// operands evaluates l, then r, and only then converts both: Python
// evaluates both operands before the operator raises on their types, so
// `None / (1 / 0)` raises ZeroDivisionError. Conversion goes by the
// slots' tags: a value typed f64 may hold an int or a bool, such as the
// taken arm of `1 if c else 2.5`. A plain function, not a closure: the
// operator closures that call it are all a compiled plan retains.
func operands[T any](fr *Frame, l, r exprFn, conv func(rows.Slot) (T, bool)) (a, b T, ec ECode) {
	x, ec := l(fr)
	if ec != 0 {
		return a, b, ec
	}
	y, ec := r(fr)
	if ec != 0 {
		return a, b, ec
	}
	a, aok := conv(x)
	b, bok := conv(y)
	if !aok || !bok {
		return a, b, pyvalue.ExcTypeError
	}
	return a, b, 0
}

func slotI64(s rows.Slot) (int64, bool) {
	switch s.Tag {
	case types.KindI64:
		return s.I, true
	case types.KindBool:
		if s.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func slotStr(s rows.Slot) (string, bool) { return s.S, s.Tag == types.KindStr }

// binOp compiles a typed binary operator. lx/rx are the operand AST
// nodes when available (nil otherwise); they let dataflow facts elide
// runtime checks the values provably cannot trip. A result of the
// operator's value is only meaningful when its code is 0.
func (c *compiler) binOp(op string, l, r exprFn, lx, rx pyast.Expr, lt, rt, resT types.Type) (exprFn, error) {
	if !c.opts.Specialize {
		return boxedBinOp(op, l, r), nil
	}
	lu, ru := lt.Unwrap(), rt.Unwrap()
	numeric := lu.IsNumeric() && ru.IsNumeric()
	intResult := numeric && resT.Unwrap().Kind() == types.KindI64
	checkZero := true
	if numeric && (op == "//" || op == "%" || op == "/") {
		if checkZero = !c.flowNonZero(rx); !checkZero {
			c.stats.ChecksElided++
		}
	}

	switch op {
	case "+", "-", "*", "//", "%", "**":
		if intResult {
			switch op {
			case "+":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, b, ec := operands(fr, l, r, slotI64)
					return rows.I64(a + b), ec
				}, nil
			case "-":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, b, ec := operands(fr, l, r, slotI64)
					return rows.I64(a - b), ec
				}, nil
			case "*":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, b, ec := operands(fr, l, r, slotI64)
					return rows.I64(a * b), ec
				}, nil
			case "//", "%":
				mod := op == "%"
				return func(fr *Frame) (rows.Slot, ECode) {
					a, b, ec := operands(fr, l, r, slotI64)
					switch {
					case ec != 0:
						return rows.Slot{}, ec
					case checkZero && b == 0:
						return rows.Slot{}, pyvalue.ExcZeroDivisionError
					case mod:
						return rows.I64(pyvalue.FloorModInt(a, b)), 0
					}
					return rows.I64(pyvalue.FloorDivInt(a, b)), 0
				}, nil
			default: // "**"
				checkNeg := !c.flowNonNegative(rx)
				if !checkNeg {
					c.stats.ChecksElided++
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, b, ec := operands(fr, l, r, slotI64)
					switch {
					case ec != 0:
						return rows.Slot{}, ec
					case checkNeg && b < 0:
						// int**negative is a float in Python: off the
						// normal-case type, retried on the general path.
						return rows.Slot{}, pyvalue.ExcUnsupported
					}
					return rows.I64(pyvalue.IPow(a, b)), 0
				}, nil
			}
		}
		if numeric {
			return numOp(op, l, r, checkZero), nil
		}
		// String cases.
		if op == "+" && lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			return func(fr *Frame) (rows.Slot, ECode) {
				a, b, ec := operands(fr, l, r, slotStr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				return rows.Str(fr.intern(appendConcat(fr.Scratch[:0], a, b))), 0
			}, nil
		}
		if op == "*" && lu.Kind() == types.KindStr && ru.IsNumeric() {
			return func(fr *Frame) (rows.Slot, ECode) {
				x, ec := l(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				y, ec := r(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				n, ok := slotI64(y)
				if x.Tag != types.KindStr || !ok {
					return rows.Slot{}, pyvalue.ExcTypeError
				}
				if n <= 0 {
					return rows.Str(""), 0
				}
				return rows.Str(strings.Repeat(x.S, int(n))), 0
			}, nil
		}
		if op == "%" && lu.Kind() == types.KindStr {
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
	case "/":
		return numOp(op, l, r, checkZero), nil
	case "&", "|", "^", "<<", ">>":
		o := op
		return func(fr *Frame) (rows.Slot, ECode) {
			a, b, ec := operands(fr, l, r, slotI64)
			switch o {
			case "&":
				return rows.I64(a & b), ec
			case "|":
				return rows.I64(a | b), ec
			case "^":
				return rows.I64(a ^ b), ec
			case "<<":
				return rows.I64(a << uint(b)), ec
			default:
				return rows.I64(a >> uint(b)), ec
			}
		}, nil
	default:
		return boxedBinOp(op, l, r), nil
	}
}

// numOp is an f64-typed + - * / // % **. An f64-typed value may hold an
// int (the taken arm of `1 if c else 2.5`); two int operands compute as
// ints, as in Python and on the general path, every other pair through
// float64. checkZero keeps the zero-divisor test of the division family.
func numOp(op string, l, r exprFn, checkZero bool) exprFn {
	f := floatKernel(op, checkZero)
	intPair := op != "/" // true division of two ints is a float in Python
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
			v, err := applyBoxedOp(op, x.Value(), y.Value())
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.FromValue(v), 0
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
func floatKernel(op string, checkZero bool) func(a, b float64) (rows.Slot, ECode) {
	switch op {
	case "+":
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a + b), 0 }
	case "-":
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a - b), 0 }
	case "*":
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(a * b), 0 }
	case "**":
		return func(a, b float64) (rows.Slot, ECode) { return rows.F64(math.Pow(a, b)), 0 }
	}
	return func(a, b float64) (rows.Slot, ECode) {
		switch {
		case checkZero && b == 0:
			return rows.Slot{}, pyvalue.ExcZeroDivisionError
		case op == "/":
			return rows.F64(a / b), 0
		case op == "//":
			return rows.F64(math.Floor(a / b)), 0
		}
		return rows.F64(pyvalue.FloorModFloat(a, b)), 0
	}
}

// compare compiles a (possibly chained) comparison.
func (c *compiler) compare(x *pyast.Compare) (exprFn, error) {
	operands := append([]pyast.Expr{x.First}, x.Rest...)
	fns := make([]exprFn, len(operands))
	for i, e := range operands {
		f, err := c.expr(e)
		if err != nil {
			return nil, err
		}
		fns[i] = f
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
	if len(steps) == 1 {
		lf, rf := fns[0], fns[1]
		step := steps[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			a, ec := lf(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			b, ec := rf(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			ok, ec := step(fr, a, b)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Bool(ok), 0
		}, nil
	}
	return func(fr *Frame) (rows.Slot, ECode) {
		left, ec := fns[0](fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		for i, step := range steps {
			right, ec := fns[i+1](fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			ok, ec := step(fr, left, right)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if !ok {
				return rows.Bool(false), 0
			}
			left = right
		}
		return rows.Bool(true), 0
	}, nil
}

func (c *compiler) compareStep(op string, lt, rt types.Type) (func(fr *Frame, a, b rows.Slot) (bool, ECode), error) {
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
	case "==", "!=":
		neg := op == "!="
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			return rows.Equal(a, b) != neg, 0
		}, nil
	case "is":
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			return a.Tag == types.KindNull && b.Tag == types.KindNull ||
				(a.Tag == b.Tag && rows.Equal(a, b)), 0
		}, nil
	case "is not":
		return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
			same := a.Tag == types.KindNull && b.Tag == types.KindNull ||
				(a.Tag == b.Tag && rows.Equal(a, b))
			return !same, 0
		}, nil
	case "in", "not in":
		neg := op == "not in"
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
	case "<", "<=", ">", ">=":
		if lu.IsNumeric() && ru.IsNumeric() {
			o := op
			return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
				if a.Tag == types.KindI64 && b.Tag == types.KindI64 {
					// Two ints order exactly, as in Python: float64 would
					// merge neighbours beyond 2^53.
					return ordered(o, a.I, b.I), 0
				}
				af, aok := slotF64(a)
				bf, bok := slotF64(b)
				if !aok || !bok {
					return false, pyvalue.ExcTypeError
				}
				return ordered(o, af, bf), 0
			}, nil
		}
		if lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			return strStep(op), nil
		}
		return boxed, nil
	default:
		return boxed, nil
	}
}

// strStep is one string comparison or substring test, through the
// helper the vector kernels share (strhelp.go).
func strStep(op string) func(fr *Frame, a, b rows.Slot) (bool, ECode) {
	o, _ := strCmpOpOf(op)
	return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
		if a.Tag != types.KindStr || b.Tag != types.KindStr {
			return false, pyvalue.ExcTypeError
		}
		return strCompare(o, a.S, b.S), 0
	}
}

// ordered evaluates a op b for one of < <= > >=.
func ordered[T int64 | float64](op string, a, b T) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
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
