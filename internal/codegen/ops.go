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

// asI64 wraps e (typed int-like, possibly optional) into an int64
// producer with runtime checks only where the static type demands them.
func asI64(e exprFn, t types.Type) func(fr *Frame) (int64, ECode) {
	u := t.Unwrap()
	if !t.IsOption() && u.Kind() == types.KindI64 {
		return func(fr *Frame) (int64, ECode) {
			v, ec := e(fr)
			return v.I, ec
		}
	}
	return func(fr *Frame) (int64, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return 0, ec
		}
		switch v.Tag {
		case types.KindI64:
			return v.I, 0
		case types.KindBool:
			if v.B {
				return 1, 0
			}
			return 0, 0
		default:
			return 0, pyvalue.ExcTypeError
		}
	}
}

// asF64 wraps e (typed numeric, possibly optional) into a float64
// producer.
func asF64(e exprFn, t types.Type) func(fr *Frame) (float64, ECode) {
	u := t.Unwrap()
	if !t.IsOption() {
		switch u.Kind() {
		case types.KindF64:
			return func(fr *Frame) (float64, ECode) {
				v, ec := e(fr)
				return v.F, ec
			}
		case types.KindI64:
			return func(fr *Frame) (float64, ECode) {
				v, ec := e(fr)
				return float64(v.I), ec
			}
		}
	}
	return func(fr *Frame) (float64, ECode) {
		v, ec := e(fr)
		if ec != 0 {
			return 0, ec
		}
		switch v.Tag {
		case types.KindF64:
			return v.F, 0
		case types.KindI64:
			return float64(v.I), 0
		case types.KindBool:
			if v.B {
				return 1, 0
			}
			return 0, 0
		default:
			return 0, pyvalue.ExcTypeError
		}
	}
}

// asStr wraps e (typed str, possibly optional) into a string producer.
// A None at runtime raises ec (TypeError by default; AttributeError for
// method receivers).
func asStr(e exprFn, t types.Type, onNull ECode) func(fr *Frame) (string, ECode) {
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

// binOp compiles a typed binary operator. lx/rx are the operand AST
// nodes when available (nil otherwise); they let dataflow facts elide
// runtime checks the values provably cannot trip.
func (c *compiler) binOp(op string, l, r exprFn, lx, rx pyast.Expr, lt, rt, resT types.Type) (exprFn, error) {
	if !c.opts.Specialize {
		return boxedBinOp(op, l, r), nil
	}
	// Null-check elision: an Option operand proven non-null on this path
	// compiles with the unwrapped type's direct accessor.
	if lt.IsOption() && c.flowNonNull(lx) {
		lt = lt.Unwrap()
		c.stats.ChecksElided++
	}
	if rt.IsOption() && c.flowNonNull(rx) {
		rt = rt.Unwrap()
		c.stats.ChecksElided++
	}
	lu, ru := lt.Unwrap(), rt.Unwrap()
	numeric := lu.IsNumeric() && ru.IsNumeric()
	intResult := numeric && resT.Unwrap().Kind() == types.KindI64

	switch op {
	case "+", "-", "*", "//", "%", "**":
		if numeric && intResult {
			li, ri := c.i64OpFB(lx, lt, l), c.i64OpFB(rx, rt, r)
			switch op {
			case "+":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.I64(a + b), 0
				}, nil
			case "-":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.I64(a - b), 0
				}, nil
			case "*":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.I64(a * b), 0
				}, nil
			case "//":
				if c.flowNonZero(rx) {
					c.stats.ChecksElided++
					return func(fr *Frame) (rows.Slot, ECode) {
						a, ec := li(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						b, ec := ri(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						return rows.I64(pyvalue.FloorDivInt(a, b)), 0
					}, nil
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if b == 0 {
						return rows.Slot{}, pyvalue.ExcZeroDivisionError
					}
					return rows.I64(pyvalue.FloorDivInt(a, b)), 0
				}, nil
			case "%":
				if c.flowNonZero(rx) {
					c.stats.ChecksElided++
					return func(fr *Frame) (rows.Slot, ECode) {
						a, ec := li(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						b, ec := ri(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						return rows.I64(pyvalue.FloorModInt(a, b)), 0
					}, nil
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if b == 0 {
						return rows.Slot{}, pyvalue.ExcZeroDivisionError
					}
					return rows.I64(pyvalue.FloorModInt(a, b)), 0
				}, nil
			case "**":
				if c.flowNonNegative(rx) {
					c.stats.ChecksElided++
					return func(fr *Frame) (rows.Slot, ECode) {
						a, ec := li(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						b, ec := ri(fr)
						if ec != 0 {
							return rows.Slot{}, ec
						}
						return rows.I64(pyvalue.IPow(a, b)), 0
					}, nil
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := li(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := ri(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if b < 0 {
						// int**negative is a float in Python: off the
						// normal-case type, retried on the general path.
						return rows.Slot{}, pyvalue.ExcUnsupported
					}
					return rows.I64(pyvalue.IPow(a, b)), 0
				}, nil
			}
		}
		if numeric {
			lf, rf := c.f64OpFB(lx, lt, l), c.f64OpFB(rx, rt, r)
			switch op {
			case "+":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.F64(a + b), 0
				}, nil
			case "-":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.F64(a - b), 0
				}, nil
			case "*":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.F64(a * b), 0
				}, nil
			case "//":
				checkZero := !c.flowNonZero(rx)
				if !checkZero {
					c.stats.ChecksElided++
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if checkZero && b == 0 {
						return rows.Slot{}, pyvalue.ExcZeroDivisionError
					}
					return rows.F64(math.Floor(a / b)), 0
				}, nil
			case "%":
				checkZero := !c.flowNonZero(rx)
				if !checkZero {
					c.stats.ChecksElided++
				}
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					if checkZero && b == 0 {
						return rows.Slot{}, pyvalue.ExcZeroDivisionError
					}
					return rows.F64(pyvalue.FloorModFloat(a, b)), 0
				}, nil
			case "**":
				return func(fr *Frame) (rows.Slot, ECode) {
					a, ec := lf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					b, ec := rf(fr)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.F64(math.Pow(a, b)), 0
				}, nil
			}
		}
		// String cases.
		if op == "+" && lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			ls, rs := c.strOpFB(lx, lt, l, pyvalue.ExcTypeError), c.strOpFB(rx, rt, r, pyvalue.ExcTypeError)
			return func(fr *Frame) (rows.Slot, ECode) {
				a, ec := ls(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				b, ec := rs(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				return rows.Str(fr.intern(appendConcat(fr.Scratch[:0], a, b))), 0
			}, nil
		}
		if op == "*" && lu.Kind() == types.KindStr && ru.IsNumeric() {
			ls, ri := c.strOpFB(lx, lt, l, pyvalue.ExcTypeError), c.i64OpFB(rx, rt, r)
			return func(fr *Frame) (rows.Slot, ECode) {
				a, ec := ls(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				n, ec := ri(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				if n <= 0 {
					return rows.Str(""), 0
				}
				return rows.Str(strings.Repeat(a, int(n))), 0
			}, nil
		}
		if op == "%" && lu.Kind() == types.KindStr {
			// printf-style formatting: the shared formatter appends into
			// the frame's scratch buffer and the result is arena-interned,
			// so a hot-loop format pays only the operand boxing — and not
			// even that for a literal format over ints.
			if lx != nil && rx != nil {
				if f, err := c.percentIntNat(lx, rx); err != nil || f != nil {
					return wrapStr(f), err
				}
			}
			ls := c.strOpFB(lx, lt, l, pyvalue.ExcTypeError)
			return func(fr *Frame) (rows.Slot, ECode) {
				a, ec := ls(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				b, ec := r(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				out, err := pyvalue.AppendPercentFormat(fr.Scratch[:0], a, b.Value())
				if err != nil {
					return rows.Slot{}, pyvalue.KindOf(err)
				}
				fr.Scratch = out[:0]
				return rows.Str(fr.Arena.Intern(out)), 0
			}, nil
		}
		if op == "+" && lu.Kind() == types.KindList && ru.Kind() == types.KindList {
			return boxedBinOp(op, l, r), nil
		}
		return boxedBinOp(op, l, r), nil
	case "/":
		lf, rf := c.f64OpFB(lx, lt, l), c.f64OpFB(rx, rt, r)
		checkZero := !c.flowNonZero(rx)
		if !checkZero {
			c.stats.ChecksElided++
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			a, ec := lf(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			b, ec := rf(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if checkZero && b == 0 {
				return rows.Slot{}, pyvalue.ExcZeroDivisionError
			}
			return rows.F64(a / b), 0
		}, nil
	case "&", "|", "^", "<<", ">>":
		li, ri := c.i64OpFB(lx, lt, l), c.i64OpFB(rx, rt, r)
		o := op
		return func(fr *Frame) (rows.Slot, ECode) {
			a, ec := li(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			b, ec := ri(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			switch o {
			case "&":
				return rows.I64(a & b), 0
			case "|":
				return rows.I64(a | b), 0
			case "^":
				return rows.I64(a ^ b), 0
			case "<<":
				return rows.I64(a << uint(b)), 0
			default:
				return rows.I64(a >> uint(b)), 0
			}
		}, nil
	default:
		return boxedBinOp(op, l, r), nil
	}
}

// compare compiles a (possibly chained) comparison.
func (c *compiler) compare(x *pyast.Compare) (exprFn, error) {
	if f, err := c.compareBool(x); err != nil {
		return nil, err
	} else if f != nil {
		return func(fr *Frame) (rows.Slot, ECode) {
			ok, ec := f(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Bool(ok), 0
		}, nil
	}
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
			return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
				if a.Tag != types.KindStr || b.Tag != types.KindStr {
					return false, pyvalue.ExcTypeError
				}
				return strings.Contains(b.S, a.S) != neg, 0
			}, nil
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
				af, aok := slotF64(a)
				bf, bok := slotF64(b)
				if !aok || !bok {
					return false, pyvalue.ExcTypeError
				}
				switch o {
				case "<":
					return af < bf, 0
				case "<=":
					return af <= bf, 0
				case ">":
					return af > bf, 0
				default:
					return af >= bf, 0
				}
			}, nil
		}
		if lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
			o := op
			return func(fr *Frame, a, b rows.Slot) (bool, ECode) {
				if a.Tag != types.KindStr || b.Tag != types.KindStr {
					return false, pyvalue.ExcTypeError
				}
				cmp := strings.Compare(a.S, b.S)
				switch o {
				case "<":
					return cmp < 0, 0
				case "<=":
					return cmp <= 0, 0
				case ">":
					return cmp > 0, 0
				default:
					return cmp >= 0, 0
				}
			}, nil
		}
		return boxed, nil
	default:
		return boxed, nil
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
