package codegen

// typed.go — native typed operand compilation.
//
// The generic compiler represents every intermediate value as a
// rows.Slot; each closure boundary copies and zeroes one 80-byte
// struct. Kernel profiles show those copies are the single largest
// cost of row UDFs. The functions here compile the operand shapes hot
// in row UDFs — column loads, string methods, arithmetic, comparisons,
// percent formatting — into closures passing unboxed Go scalars
// (string, int64, float64), recursing through nested expressions, with
// the generic Slot path as fallback for everything else. Operator
// closures in ops.go/strops.go remain the Slot boundary toward
// statements, so semantics (exception codes, null handling, row
// accounting) are unchanged.

import (
	"math"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

type i64Fn = func(*Frame) (int64, ECode)
type f64Fn = func(*Frame) (float64, ECode)
type strFn = func(*Frame) (string, ECode)
type boolFn = func(*Frame) (bool, ECode)

// nativeBail reports whether x must take the generic compile path:
// typing failures and dataflow folds carry semantics (exception exits,
// constant folding) the typed fast paths do not reproduce. It probes
// without bumping optimizer stats so a discarded native attempt leaves
// no trace.
func (c *compiler) nativeBail(x pyast.Expr) bool {
	if _, ok := c.info.Failed[x]; ok {
		return true
	}
	if c.opts.Flow != nil {
		if _, ok := c.opts.Flow.AlwaysRaises(x); ok {
			return true
		}
		switch x.(type) {
		case *pyast.NumLit, *pyast.StrLit, *pyast.BoolLit, *pyast.NoneLit:
			return false
		}
		if _, ok := c.opts.Flow.Constant(x); ok {
			return true
		}
	}
	return false
}

// wrapStr lifts a typed string producer back into a Slot producer.
func wrapStr(f strFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := f(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		return rows.Str(s), 0
	}
}

// ---- operand entry points with precompiled fallback --------------------
//
// The *OpFB variants are used at operator call sites that already hold
// the generic compile of the operand (binOp, strMethodCall): try the
// native form, adapt the existing closure otherwise. Native compile
// errors cannot introduce new failures — the generic compile of the
// same node already succeeded — so they fall back silently.

func (c *compiler) i64OpFB(x pyast.Expr, t types.Type, fb exprFn) i64Fn {
	if x != nil {
		if f, err := c.i64Nat(x); err == nil && f != nil {
			return f
		}
	}
	return asI64(fb, t)
}

func (c *compiler) f64OpFB(x pyast.Expr, t types.Type, fb exprFn) f64Fn {
	if x != nil {
		if f, err := c.f64Nat(x); err == nil && f != nil {
			return f
		}
	}
	return asF64(fb, t)
}

func (c *compiler) strOpFB(x pyast.Expr, t types.Type, fb exprFn, onNull ECode) strFn {
	if x != nil {
		if f, err := c.strNat(x, onNull); err == nil && f != nil {
			return f
		}
	}
	return asStr(fb, t, onNull)
}

// ---- child compilers (native first, fresh generic fallback) ------------

func (c *compiler) i64Child(x pyast.Expr) (i64Fn, error) {
	if f, err := c.i64Nat(x); err != nil || f != nil {
		return f, err
	}
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	if t.IsOption() && c.flowNonNull(x) {
		t = t.Unwrap()
		c.stats.ChecksElided++
	}
	return asI64(e, t), nil
}

func (c *compiler) f64Child(x pyast.Expr) (f64Fn, error) {
	if f, err := c.f64Nat(x); err != nil || f != nil {
		return f, err
	}
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	if t.IsOption() && c.flowNonNull(x) {
		t = t.Unwrap()
		c.stats.ChecksElided++
	}
	return asF64(e, t), nil
}

func (c *compiler) strChild(x pyast.Expr, onNull ECode) (strFn, error) {
	if f, err := c.strNat(x, onNull); err != nil || f != nil {
		return f, err
	}
	e, err := c.expr(x)
	if err != nil {
		return nil, err
	}
	t := x.Type()
	if t.IsOption() && c.flowNonNull(x) {
		t = t.Unwrap()
		c.stats.ChecksElided++
	}
	return asStr(e, t, onNull), nil
}

// assignNat compiles `name = <typed expr>` into a closure that writes
// the scalar straight into the variable's slot: the generic path
// returns a Slot from the RHS closure, copies it into the statement
// closure, and copies it again into the slot — three 80-byte moves the
// typed store collapses into one.
func (c *compiler) assignNat(target *pyast.Name, value pyast.Expr) (stmtFn, error) {
	if !c.opts.Specialize || c.nativeBail(value) {
		return nil, nil
	}
	t := value.Type()
	if t.IsOption() {
		return nil, nil
	}
	switch t.Kind() {
	case types.KindStr:
		f, err := c.strNat(value, pyvalue.ExcTypeError)
		if err != nil || f == nil {
			return nil, err
		}
		idx := c.slot(target.Ident)
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			v, ec := f(fr)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			p := &fr.Slots[idx]
			p.Tag, p.S = types.KindStr, v
			p.Seq, p.Obj = nil, nil
			return ctlNext, rows.Slot{}, 0
		}, nil
	case types.KindI64:
		f, err := c.i64Nat(value)
		if err != nil || f == nil {
			return nil, err
		}
		idx := c.slot(target.Ident)
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			v, ec := f(fr)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			p := &fr.Slots[idx]
			p.Tag, p.I = types.KindI64, v
			p.S, p.Seq, p.Obj = "", nil, nil
			return ctlNext, rows.Slot{}, 0
		}, nil
	case types.KindF64:
		f, err := c.f64Nat(value)
		if err != nil || f == nil {
			return nil, err
		}
		idx := c.slot(target.Ident)
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			v, ec := f(fr)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			p := &fr.Slots[idx]
			p.Tag, p.F = types.KindF64, v
			p.S, p.Seq, p.Obj = "", nil, nil
			return ctlNext, rows.Slot{}, 0
		}, nil
	case types.KindBool:
		cmp, ok := value.(*pyast.Compare)
		if !ok {
			return nil, nil
		}
		f, err := c.compareBool(cmp)
		if err != nil || f == nil {
			return nil, err
		}
		idx := c.slot(target.Ident)
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			v, ec := f(fr)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			p := &fr.Slots[idx]
			p.Tag, p.B = types.KindBool, v
			p.S, p.Seq, p.Obj = "", nil, nil
			return ctlNext, rows.Slot{}, 0
		}, nil
	}
	return nil, nil
}

// rowElemAt compiles `name[rowIdx]` column access into a pointer read:
// no copy of the row Slot, no copy of the element.
func (c *compiler) rowElemAt(x *pyast.Subscript) func(fr *Frame) (*rows.Slot, ECode) {
	if x.RowIdx < 0 {
		return nil
	}
	nm, ok := x.X.(*pyast.Name)
	if !ok || c.nativeBail(nm) {
		return nil
	}
	idx, ok := c.slots[nm.Ident]
	if !ok {
		return nil
	}
	col := x.RowIdx
	return func(fr *Frame) (*rows.Slot, ECode) {
		row := &fr.Slots[idx]
		if row.Tag == types.KindInvalid {
			return nil, pyvalue.ExcNameError
		}
		if col >= len(row.Seq) {
			return nil, pyvalue.ExcIndexError
		}
		return &row.Seq[col], 0
	}
}

// ---- native string compilation -----------------------------------------

func (c *compiler) strNat(x pyast.Expr, onNull ECode) (strFn, error) {
	if !c.opts.Specialize || c.nativeBail(x) {
		return nil, nil
	}
	switch x := x.(type) {
	case *pyast.StrLit:
		s := x.S
		return func(*Frame) (string, ECode) { return s, 0 }, nil
	case *pyast.Name:
		idx, ok := c.slots[x.Ident]
		if !ok {
			if g, ok := c.globals[x.Ident]; ok && g.Tag == types.KindStr {
				s := g.S
				return func(*Frame) (string, ECode) { return s, 0 }, nil
			}
			return nil, nil
		}
		t := x.Type()
		if !t.IsOption() && t.Kind() == types.KindStr {
			return func(fr *Frame) (string, ECode) {
				sl := &fr.Slots[idx]
				if sl.Tag == types.KindInvalid {
					return "", pyvalue.ExcNameError
				}
				return sl.S, 0
			}, nil
		}
		ec0 := onNull
		return func(fr *Frame) (string, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return "", pyvalue.ExcNameError
			}
			if sl.Tag != types.KindStr {
				return "", ec0
			}
			return sl.S, 0
		}, nil
	case *pyast.Subscript:
		if el := c.rowElemAt(x); el != nil {
			t := x.Type()
			if !t.IsOption() && t.Kind() == types.KindStr {
				return func(fr *Frame) (string, ECode) {
					p, ec := el(fr)
					if ec != 0 {
						return "", ec
					}
					return p.S, 0
				}, nil
			}
			ec0 := onNull
			return func(fr *Frame) (string, ECode) {
				p, ec := el(fr)
				if ec != 0 {
					return "", ec
				}
				if p.Tag != types.KindStr {
					return "", ec0
				}
				return p.S, 0
			}, nil
		}
		if x.RowIdx < 0 && x.X.Type().Unwrap().Kind() == types.KindStr {
			// Single-character subscript on a string.
			recv, err := c.strChild(x.X, pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			idx, err := c.i64Child(x.Index)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (string, ECode) {
				s, ec := recv(fr)
				if ec != 0 {
					return "", ec
				}
				i, ec := idx(fr)
				if ec != 0 {
					return "", ec
				}
				ch, ok := strIndex(s, i)
				if !ok {
					return "", pyvalue.ExcIndexError
				}
				return ch, 0
			}, nil
		}
		return nil, nil
	case *pyast.Slice:
		return c.strSliceNat(x)
	case *pyast.BinOp:
		switch x.Op {
		case "+":
			if x.Type().Unwrap().Kind() != types.KindStr ||
				x.Left.Type().Unwrap().Kind() != types.KindStr ||
				x.Right.Type().Unwrap().Kind() != types.KindStr {
				return nil, nil
			}
			ls, err := c.strChild(x.Left, pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			rs, err := c.strChild(x.Right, pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (string, ECode) {
				a, ec := ls(fr)
				if ec != 0 {
					return "", ec
				}
				b, ec := rs(fr)
				if ec != 0 {
					return "", ec
				}
				return fr.intern(appendConcat(fr.Scratch[:0], a, b)), 0
			}, nil
		case "%":
			if x.Type().Unwrap().Kind() != types.KindStr ||
				x.Left.Type().Unwrap().Kind() != types.KindStr {
				return nil, nil
			}
			if f, err := c.percentIntNat(x.Left, x.Right); err != nil || f != nil {
				return f, err
			}
			ls, err := c.strChild(x.Left, pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			r, err := c.expr(x.Right)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (string, ECode) {
				a, ec := ls(fr)
				if ec != 0 {
					return "", ec
				}
				b, ec := r(fr)
				if ec != 0 {
					return "", ec
				}
				out, err := pyvalue.AppendPercentFormat(fr.Scratch[:0], a, b.Value())
				if err != nil {
					return "", pyvalue.KindOf(err)
				}
				fr.Scratch = out[:0]
				return fr.Arena.Intern(out), 0
			}, nil
		}
		return nil, nil
	case *pyast.Call:
		return c.strCallNat(x)
	}
	return nil, nil
}

// strSliceNat compiles a unit-step slice of a string.
func (c *compiler) strSliceNat(x *pyast.Slice) (strFn, error) {
	if x.X.Type().Unwrap().Kind() != types.KindStr || x.Step != nil {
		return nil, nil
	}
	recv, err := c.strChild(x.X, pyvalue.ExcTypeError)
	if err != nil {
		return nil, err
	}
	bound := func(b pyast.Expr) (i64Fn, error) {
		if b == nil {
			return nil, nil
		}
		return c.i64Child(b)
	}
	lo, err := bound(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := bound(x.Hi)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (string, ECode) {
		s, ec := recv(fr)
		if ec != 0 {
			return "", ec
		}
		var l, h *int64
		if lo != nil {
			v, ec := lo(fr)
			if ec != 0 {
				return "", ec
			}
			l = &v
		}
		if hi != nil {
			v, ec := hi(fr)
			if ec != 0 {
				return "", ec
			}
			h = &v
		}
		return strSlice(s, l, h), 0
	}, nil
}

// maxIntFormatArgs bounds the arguments of a compiled integer format: the
// row closure stages them in a stack array, the vector kernel in a fixed
// operand list.
const maxIntFormatArgs = 4

// percentArgs lists the arguments of `fmt % right`: the elements of a
// tuple display, or right itself.
func percentArgs(right pyast.Expr) []pyast.Expr {
	if t, ok := right.(*pyast.TupleLit); ok {
		return t.Elts
	}
	return []pyast.Expr{right}
}

// intFormatOf compiles `fmt % args` / `fmt.format(args)` when fmt is a
// literal the integer formatter covers and every argument is statically
// an int; nil otherwise.
func intFormatOf(format pyast.Expr, args []pyast.Expr, percent bool) *pyvalue.IntFormat {
	lit, ok := format.(*pyast.StrLit)
	if !ok || len(args) == 0 || len(args) > maxIntFormatArgs {
		return nil
	}
	for _, a := range args {
		if t := a.Type(); t.IsOption() || t.Kind() != types.KindI64 {
			return nil
		}
	}
	compile := pyvalue.CompileStrFormatInt
	if percent {
		compile = pyvalue.CompilePercentInt
	}
	f, ok := compile(lit.S)
	if !ok || !f.Accepts(len(args)) {
		return nil
	}
	return f
}

// intFormatNat compiles a literal format over int arguments into the
// shared integer formatter: no operand boxing, no per-row format parse.
// nil when the shape is not covered (the caller keeps the generic
// formatter).
func (c *compiler) intFormatNat(format pyast.Expr, args []pyast.Expr, percent bool) (strFn, error) {
	if !c.opts.Specialize || c.nativeBail(format) {
		return nil, nil
	}
	f := intFormatOf(format, args, percent)
	if f == nil {
		return nil, nil
	}
	fns := make([]i64Fn, len(args))
	for i, a := range args {
		fn, err := c.i64Child(a)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return func(fr *Frame) (string, ECode) {
		var vals [maxIntFormatArgs]int64
		for i, fn := range fns {
			v, ec := fn(fr)
			if ec != 0 {
				return "", ec
			}
			vals[i] = v
		}
		return fr.intern(f.Append(fr.Scratch[:0], vals[:len(fns)]), ""), 0
	}, nil
}

// percentIntNat is intFormatNat for `format % right`; a right operand the
// generic compile turns into an exception exit or a folded constant keeps
// the generic formatter.
func (c *compiler) percentIntNat(format, right pyast.Expr) (strFn, error) {
	if c.nativeBail(right) {
		return nil, nil
	}
	return c.intFormatNat(format, percentArgs(right), true)
}

// strCallNat compiles the string-returning string methods whose bodies
// are shared with strops.go.
func (c *compiler) strCallNat(x *pyast.Call) (strFn, error) {
	attr, ok := x.Fn.(*pyast.Attr)
	if !ok {
		return nil, nil
	}
	if mod, ok := attr.X.(*pyast.Name); ok && isModuleIdent(mod.Ident) {
		if _, shadowed := c.slots[mod.Ident]; !shadowed {
			return nil, nil
		}
	}
	if attr.X.Type().Unwrap().Kind() != types.KindStr {
		return nil, nil
	}
	switch attr.Name {
	case "lower", "upper":
		if len(x.Args) != 0 {
			return nil, nil
		}
	case "capitalize", "title":
		if len(x.Args) != 0 {
			return nil, nil
		}
	case "replace":
		if len(x.Args) != 2 {
			return nil, nil
		}
	case "strip", "lstrip", "rstrip":
		if len(x.Args) > 1 {
			return nil, nil
		}
	default:
		return nil, nil
	}
	recv, err := c.strChild(attr.X, pyvalue.ExcAttributeError)
	if err != nil {
		return nil, err
	}
	switch attr.Name {
	case "lower":
		return strCaseFoldS(recv, false), nil
	case "upper":
		return strCaseFoldS(recv, true), nil
	case "capitalize":
		return strUnaryS(recv, pyvalue.Capitalize), nil
	case "title":
		return strUnaryS(recv, pyvalue.TitleCase), nil
	case "replace":
		oldA, err := c.strChild(x.Args[0], pyvalue.ExcTypeError)
		if err != nil {
			return nil, err
		}
		newA, err := c.strChild(x.Args[1], pyvalue.ExcTypeError)
		if err != nil {
			return nil, err
		}
		return strReplaceS(recv, oldA, newA), nil
	default: // strip family
		var cut strFn
		if len(x.Args) == 1 {
			cut, err = c.strChild(x.Args[0], pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
		}
		return strStripS(recv, cut, stripModeOf(attr.Name)), nil
	}
}

// ---- native int64 compilation ------------------------------------------

func (c *compiler) i64Nat(x pyast.Expr) (i64Fn, error) {
	if !c.opts.Specialize || c.nativeBail(x) {
		return nil, nil
	}
	switch x := x.(type) {
	case *pyast.NumLit:
		if x.IsFloat {
			return nil, nil
		}
		n := x.I
		return func(*Frame) (int64, ECode) { return n, 0 }, nil
	case *pyast.BoolLit:
		n := int64(0)
		if x.B {
			n = 1
		}
		return func(*Frame) (int64, ECode) { return n, 0 }, nil
	case *pyast.Name:
		idx, ok := c.slots[x.Ident]
		if !ok {
			if g, ok := c.globals[x.Ident]; ok && g.Tag == types.KindI64 {
				n := g.I
				return func(*Frame) (int64, ECode) { return n, 0 }, nil
			}
			return nil, nil
		}
		t := x.Type()
		if !t.IsOption() && t.Kind() == types.KindI64 {
			return func(fr *Frame) (int64, ECode) {
				sl := &fr.Slots[idx]
				if sl.Tag == types.KindInvalid {
					return 0, pyvalue.ExcNameError
				}
				return sl.I, 0
			}, nil
		}
		return func(fr *Frame) (int64, ECode) {
			sl := &fr.Slots[idx]
			switch sl.Tag {
			case types.KindI64:
				return sl.I, 0
			case types.KindBool:
				if sl.B {
					return 1, 0
				}
				return 0, 0
			case types.KindInvalid:
				return 0, pyvalue.ExcNameError
			default:
				return 0, pyvalue.ExcTypeError
			}
		}, nil
	case *pyast.Subscript:
		el := c.rowElemAt(x)
		if el == nil {
			return nil, nil
		}
		t := x.Type()
		if !t.IsOption() && t.Kind() == types.KindI64 {
			return func(fr *Frame) (int64, ECode) {
				p, ec := el(fr)
				if ec != 0 {
					return 0, ec
				}
				return p.I, 0
			}, nil
		}
		return func(fr *Frame) (int64, ECode) {
			p, ec := el(fr)
			if ec != 0 {
				return 0, ec
			}
			switch p.Tag {
			case types.KindI64:
				return p.I, 0
			case types.KindBool:
				if p.B {
					return 1, 0
				}
				return 0, 0
			default:
				return 0, pyvalue.ExcTypeError
			}
		}, nil
	case *pyast.BinOp:
		return c.i64BinNat(x)
	case *pyast.Call:
		return c.i64CallNat(x)
	}
	return nil, nil
}

func (c *compiler) i64BinNat(x *pyast.BinOp) (i64Fn, error) {
	lu := x.Left.Type().Unwrap()
	ru := x.Right.Type().Unwrap()
	switch x.Op {
	case "+", "-", "*", "//", "%", "**":
		if !lu.IsNumeric() || !ru.IsNumeric() || x.Type().Unwrap().Kind() != types.KindI64 {
			return nil, nil
		}
	case "&", "|", "^", "<<", ">>":
		if lu.Kind() != types.KindI64 || ru.Kind() != types.KindI64 {
			return nil, nil
		}
	default:
		return nil, nil
	}
	a, err := c.i64Child(x.Left)
	if err != nil {
		return nil, err
	}
	b, err := c.i64Child(x.Right)
	if err != nil {
		return nil, err
	}
	eval2 := func(fr *Frame) (int64, int64, ECode) {
		av, ec := a(fr)
		if ec != 0 {
			return 0, 0, ec
		}
		bv, ec := b(fr)
		return av, bv, ec
	}
	switch x.Op {
	case "+":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av + bv, ec
		}, nil
	case "-":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av - bv, ec
		}, nil
	case "*":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av * bv, ec
		}, nil
	case "//", "%":
		mod := x.Op == "%"
		checkZero := !c.flowNonZero(x.Right)
		if !checkZero {
			c.stats.ChecksElided++
		}
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			if ec != 0 {
				return 0, ec
			}
			if checkZero && bv == 0 {
				return 0, pyvalue.ExcZeroDivisionError
			}
			if mod {
				return pyvalue.FloorModInt(av, bv), 0
			}
			return pyvalue.FloorDivInt(av, bv), 0
		}, nil
	case "**":
		checkNeg := !c.flowNonNegative(x.Right)
		if !checkNeg {
			c.stats.ChecksElided++
		}
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			if ec != 0 {
				return 0, ec
			}
			if checkNeg && bv < 0 {
				// int**negative is a float in Python: off the normal-case
				// type, retried on the general path.
				return 0, pyvalue.ExcUnsupported
			}
			return pyvalue.IPow(av, bv), 0
		}, nil
	case "&":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av & bv, ec
		}, nil
	case "|":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av | bv, ec
		}, nil
	case "^":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av ^ bv, ec
		}, nil
	case "<<":
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av << uint(bv), ec
		}, nil
	default: // ">>"
		return func(fr *Frame) (int64, ECode) {
			av, bv, ec := eval2(fr)
			return av >> uint(bv), ec
		}, nil
	}
}

func (c *compiler) i64CallNat(x *pyast.Call) (i64Fn, error) {
	name, ok := x.Fn.(*pyast.Name)
	if !ok || len(x.Args) != 1 {
		return nil, nil
	}
	argT := x.Args[0].Type().Unwrap()
	switch name.Ident {
	case "int":
		switch argT.Kind() {
		case types.KindStr:
			s, err := c.strChild(x.Args[0], pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (int64, ECode) {
				v, ec := s(fr)
				if ec != 0 {
					return 0, ec
				}
				return parseIntPython(v)
			}, nil
		case types.KindI64, types.KindBool:
			return c.i64Child(x.Args[0])
		case types.KindF64:
			f, err := c.f64Child(x.Args[0])
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (int64, ECode) {
				v, ec := f(fr)
				if ec != 0 {
					return 0, ec
				}
				return int64(truncToward0(v)), 0
			}, nil
		}
		return nil, nil
	case "len":
		if argT.Kind() != types.KindStr {
			return nil, nil
		}
		s, err := c.strChild(x.Args[0], pyvalue.ExcTypeError)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (int64, ECode) {
			v, ec := s(fr)
			if ec != 0 {
				return 0, ec
			}
			return int64(len(v)), 0
		}, nil
	}
	return nil, nil
}

// ---- native float64 compilation ----------------------------------------

func (c *compiler) f64Nat(x pyast.Expr) (f64Fn, error) {
	if !c.opts.Specialize || c.nativeBail(x) {
		return nil, nil
	}
	switch x := x.(type) {
	case *pyast.NumLit:
		f := x.F
		if !x.IsFloat {
			f = float64(x.I)
		}
		return func(*Frame) (float64, ECode) { return f, 0 }, nil
	case *pyast.Name:
		idx, ok := c.slots[x.Ident]
		if !ok {
			if g, ok := c.globals[x.Ident]; ok && g.Tag == types.KindF64 {
				f := g.F
				return func(*Frame) (float64, ECode) { return f, 0 }, nil
			}
			return nil, nil
		}
		t := x.Type()
		if !t.IsOption() {
			switch t.Kind() {
			case types.KindF64:
				return func(fr *Frame) (float64, ECode) {
					sl := &fr.Slots[idx]
					if sl.Tag == types.KindInvalid {
						return 0, pyvalue.ExcNameError
					}
					return sl.F, 0
				}, nil
			case types.KindI64:
				return func(fr *Frame) (float64, ECode) {
					sl := &fr.Slots[idx]
					if sl.Tag == types.KindInvalid {
						return 0, pyvalue.ExcNameError
					}
					return float64(sl.I), 0
				}, nil
			}
		}
		return func(fr *Frame) (float64, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return 0, pyvalue.ExcNameError
			}
			f, ok := slotF64(*sl)
			if !ok {
				return 0, pyvalue.ExcTypeError
			}
			return f, 0
		}, nil
	case *pyast.Subscript:
		el := c.rowElemAt(x)
		if el == nil {
			return nil, nil
		}
		t := x.Type()
		if !t.IsOption() {
			switch t.Kind() {
			case types.KindF64:
				return func(fr *Frame) (float64, ECode) {
					p, ec := el(fr)
					if ec != 0 {
						return 0, ec
					}
					return p.F, 0
				}, nil
			case types.KindI64:
				return func(fr *Frame) (float64, ECode) {
					p, ec := el(fr)
					if ec != 0 {
						return 0, ec
					}
					return float64(p.I), 0
				}, nil
			}
		}
		return func(fr *Frame) (float64, ECode) {
			p, ec := el(fr)
			if ec != 0 {
				return 0, ec
			}
			f, ok := slotF64(*p)
			if !ok {
				return 0, pyvalue.ExcTypeError
			}
			return f, 0
		}, nil
	case *pyast.BinOp:
		return c.f64BinNat(x)
	case *pyast.Call:
		name, ok := x.Fn.(*pyast.Name)
		if !ok || name.Ident != "float" || len(x.Args) != 1 {
			return nil, nil
		}
		switch x.Args[0].Type().Unwrap().Kind() {
		case types.KindStr:
			s, err := c.strChild(x.Args[0], pyvalue.ExcTypeError)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (float64, ECode) {
				v, ec := s(fr)
				if ec != 0 {
					return 0, ec
				}
				return parseFloatPython(v)
			}, nil
		case types.KindF64, types.KindI64, types.KindBool:
			return c.f64Child(x.Args[0])
		}
		return nil, nil
	}
	return nil, nil
}

func (c *compiler) f64BinNat(x *pyast.BinOp) (f64Fn, error) {
	lu := x.Left.Type().Unwrap()
	ru := x.Right.Type().Unwrap()
	if !lu.IsNumeric() || !ru.IsNumeric() {
		return nil, nil
	}
	switch x.Op {
	case "/":
	case "+", "-", "*", "//", "%", "**":
		if x.Type().Unwrap().Kind() != types.KindF64 {
			return nil, nil
		}
	default:
		return nil, nil
	}
	a, err := c.f64Child(x.Left)
	if err != nil {
		return nil, err
	}
	b, err := c.f64Child(x.Right)
	if err != nil {
		return nil, err
	}
	eval2 := func(fr *Frame) (float64, float64, ECode) {
		av, ec := a(fr)
		if ec != 0 {
			return 0, 0, ec
		}
		bv, ec := b(fr)
		return av, bv, ec
	}
	switch x.Op {
	case "+":
		return func(fr *Frame) (float64, ECode) {
			av, bv, ec := eval2(fr)
			return av + bv, ec
		}, nil
	case "-":
		return func(fr *Frame) (float64, ECode) {
			av, bv, ec := eval2(fr)
			return av - bv, ec
		}, nil
	case "*":
		return func(fr *Frame) (float64, ECode) {
			av, bv, ec := eval2(fr)
			return av * bv, ec
		}, nil
	case "/", "//", "%":
		op := x.Op
		checkZero := !c.flowNonZero(x.Right)
		if !checkZero {
			c.stats.ChecksElided++
		}
		return func(fr *Frame) (float64, ECode) {
			av, bv, ec := eval2(fr)
			if ec != 0 {
				return 0, ec
			}
			if checkZero && bv == 0 {
				return 0, pyvalue.ExcZeroDivisionError
			}
			switch op {
			case "/":
				return av / bv, 0
			case "//":
				return math.Floor(av / bv), 0
			default:
				return pyvalue.FloorModFloat(av, bv), 0
			}
		}, nil
	default: // "**"
		return func(fr *Frame) (float64, ECode) {
			av, bv, ec := eval2(fr)
			if ec != 0 {
				return 0, ec
			}
			return math.Pow(av, bv), 0
		}, nil
	}
}

// truthSlotFn builds a truthiness test reading a scalar frame slot in
// place; nil when the kind has no monomorphic test.
func truthSlotFn(idx int, k types.Kind) boolFn {
	switch k {
	case types.KindBool:
		return func(fr *Frame) (bool, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return false, pyvalue.ExcNameError
			}
			return sl.B, 0
		}
	case types.KindI64:
		return func(fr *Frame) (bool, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return false, pyvalue.ExcNameError
			}
			return sl.I != 0, 0
		}
	case types.KindF64:
		return func(fr *Frame) (bool, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return false, pyvalue.ExcNameError
			}
			return sl.F != 0, 0
		}
	case types.KindStr:
		return func(fr *Frame) (bool, ECode) {
			sl := &fr.Slots[idx]
			if sl.Tag == types.KindInvalid {
				return false, pyvalue.ExcNameError
			}
			return sl.S != "", 0
		}
	}
	return nil
}

// ---- native comparisons -------------------------------------------------

// compareBool compiles a single-step comparison over scalar operands
// into a bool producer without Slot traffic. Returns nil when the shape
// is outside the native subset (chained compares, containers, identity
// tests, mixed null comparisons).
func (c *compiler) compareBool(x *pyast.Compare) (boolFn, error) {
	if !c.opts.Specialize || len(x.Ops) != 1 || c.nativeBail(x) {
		return nil, nil
	}
	op := x.Ops[0]
	l, r := x.First, x.Rest[0]
	lt, rt := l.Type(), r.Type()
	if lt.IsOption() || rt.IsOption() {
		// Option operands keep the generic rows.Equal/None semantics.
		return nil, nil
	}
	lu, ru := lt.Unwrap(), rt.Unwrap()
	if lu.Kind() == types.KindStr && ru.Kind() == types.KindStr {
		o, ok := strCmpOpOf(op)
		if !ok {
			return nil, nil
		}
		a, err := c.strChild(l, pyvalue.ExcTypeError)
		if err != nil {
			return nil, err
		}
		b, err := c.strChild(r, pyvalue.ExcTypeError)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (bool, ECode) {
			av, ec := a(fr)
			if ec != 0 {
				return false, ec
			}
			bv, ec := b(fr)
			if ec != 0 {
				return false, ec
			}
			return strCompare(o, av, bv), 0
		}, nil
	}
	if lu.IsNumeric() && ru.IsNumeric() {
		switch op {
		case "==", "!=", "<", "<=", ">", ">=":
		default:
			return nil, nil
		}
		if lu.Kind() == types.KindI64 && ru.Kind() == types.KindI64 {
			a, err := c.i64Child(l)
			if err != nil {
				return nil, err
			}
			b, err := c.i64Child(r)
			if err != nil {
				return nil, err
			}
			o := op
			return func(fr *Frame) (bool, ECode) {
				av, ec := a(fr)
				if ec != 0 {
					return false, ec
				}
				bv, ec := b(fr)
				if ec != 0 {
					return false, ec
				}
				switch o {
				case "==":
					return av == bv, 0
				case "!=":
					return av != bv, 0
				case "<":
					return av < bv, 0
				case "<=":
					return av <= bv, 0
				case ">":
					return av > bv, 0
				default:
					return av >= bv, 0
				}
			}, nil
		}
		a, err := c.f64Child(l)
		if err != nil {
			return nil, err
		}
		b, err := c.f64Child(r)
		if err != nil {
			return nil, err
		}
		o := op
		return func(fr *Frame) (bool, ECode) {
			av, ec := a(fr)
			if ec != 0 {
				return false, ec
			}
			bv, ec := b(fr)
			if ec != 0 {
				return false, ec
			}
			switch o {
			case "==":
				return av == bv, 0
			case "!=":
				return av != bv, 0
			case "<":
				return av < bv, 0
			case "<=":
				return av <= bv, 0
			case ">":
				return av > bv, 0
			default:
				return av >= bv, 0
			}
		}, nil
	}
	return nil, nil
}
