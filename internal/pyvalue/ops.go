package pyvalue

import (
	"cmp"
	"math"
	"strconv"
	"strings"
)

// Add implements Python +.
func Add(a, b Value) (Value, error) {
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		return Int(x + y), nil
	}
	if IsNumeric(a) && IsNumeric(b) {
		x, _ := asFloat(a)
		y, _ := asFloat(b)
		return Float(x + y), nil
	}
	if as, ok := a.(Str); ok {
		if bs, ok := b.(Str); ok {
			return as + bs, nil
		}
		return nil, Raise(ExcTypeError, "can only concatenate str (not %q) to str", TypeName(b))
	}
	if al, ok := a.(*List); ok {
		if bl, ok := b.(*List); ok {
			items := make([]Value, 0, len(al.Items)+len(bl.Items))
			items = append(items, al.Items...)
			items = append(items, bl.Items...)
			return &List{Items: items}, nil
		}
	}
	if at, ok := a.(*Tuple); ok {
		if bt, ok := b.(*Tuple); ok {
			items := make([]Value, 0, len(at.Items)+len(bt.Items))
			items = append(items, at.Items...)
			items = append(items, bt.Items...)
			return &Tuple{Items: items}, nil
		}
	}
	return nil, binTypeError("+", a, b)
}

// Sub implements Python -.
func Sub(a, b Value) (Value, error) {
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		return Int(x - y), nil
	}
	if IsNumeric(a) && IsNumeric(b) {
		x, _ := asFloat(a)
		y, _ := asFloat(b)
		return Float(x - y), nil
	}
	return nil, binTypeError("-", a, b)
}

// Mul implements Python *.
func Mul(a, b Value) (Value, error) {
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		return Int(x * y), nil
	}
	if IsNumeric(a) && IsNumeric(b) {
		x, _ := asFloat(a)
		y, _ := asFloat(b)
		return Float(x * y), nil
	}
	// str * int and int * str.
	if s, ok := a.(Str); ok {
		if n, ok := asInt(b); ok {
			return repeatStr(s, n), nil
		}
	}
	if s, ok := b.(Str); ok {
		if n, ok := asInt(a); ok {
			return repeatStr(s, n), nil
		}
	}
	if l, ok := a.(*List); ok {
		if n, ok := asInt(b); ok {
			return repeatList(l, n), nil
		}
	}
	if l, ok := b.(*List); ok {
		if n, ok := asInt(a); ok {
			return repeatList(l, n), nil
		}
	}
	return nil, binTypeError("*", a, b)
}

func repeatStr(s Str, n int64) Str {
	if n <= 0 {
		return ""
	}
	return Str(strings.Repeat(string(s), int(n)))
}

func repeatList(l *List, n int64) *List {
	if n <= 0 {
		return &List{}
	}
	items := make([]Value, 0, len(l.Items)*int(n))
	for range n {
		items = append(items, l.Items...)
	}
	return &List{Items: items}
}

// TrueDiv implements Python / (always float).
func TrueDiv(a, b Value) (Value, error) {
	x, aok := asFloat(a)
	y, bok := asFloat(b)
	if !aok || !bok {
		return nil, binTypeError("/", a, b)
	}
	if y == 0 {
		return nil, Raise(ExcZeroDivisionError, "division by zero")
	}
	return Float(x / y), nil
}

// FloorDiv implements Python //.
func FloorDiv(a, b Value) (Value, error) {
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		if y == 0 {
			return nil, Raise(ExcZeroDivisionError, "integer division or modulo by zero")
		}
		return Int(floorDivInt(x, y)), nil
	}
	x, aok := asFloat(a)
	y, bok := asFloat(b)
	if !aok || !bok {
		return nil, binTypeError("//", a, b)
	}
	if y == 0 {
		return nil, Raise(ExcZeroDivisionError, "float floor division by zero")
	}
	return Float(math.Floor(x / y)), nil
}

func floorDivInt(x, y int64) int64 {
	q := x / y
	if (x%y != 0) && ((x < 0) != (y < 0)) {
		q--
	}
	return q
}

// FloorModInt implements Python's % for int64 operands (result has the
// divisor's sign). Exported for reuse by the unboxed compiled path.
func FloorModInt(x, y int64) int64 {
	m := x % y
	if m != 0 && ((m < 0) != (y < 0)) {
		m += y
	}
	return m
}

// FloorModFloat implements Python's % for float operands.
func FloorModFloat(x, y float64) float64 {
	m := math.Mod(x, y)
	if m != 0 && ((m < 0) != (y < 0)) {
		m += y
	}
	return m
}

// FloorDivInt is the exported integer floor division for the compiled
// path.
func FloorDivInt(x, y int64) int64 { return floorDivInt(x, y) }

// Mod implements Python %: numeric modulo, or printf-style string
// formatting when the left operand is a str.
func Mod(a, b Value) (Value, error) {
	if s, ok := a.(Str); ok {
		return PercentFormat(string(s), b)
	}
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		if y == 0 {
			return nil, Raise(ExcZeroDivisionError, "integer division or modulo by zero")
		}
		return Int(FloorModInt(x, y)), nil
	}
	x, aok := asFloat(a)
	y, bok := asFloat(b)
	if !aok || !bok {
		return nil, binTypeError("%", a, b)
	}
	if y == 0 {
		return nil, Raise(ExcZeroDivisionError, "float modulo")
	}
	return Float(FloorModFloat(x, y)), nil
}

// Pow implements Python **. int**int with a non-negative exponent yields
// int; a negative exponent yields float (the paper uses this operator as
// its example of sample-traced result typing).
func Pow(a, b Value) (Value, error) {
	if isIntLike(a) && isIntLike(b) {
		x, _ := asInt(a)
		y, _ := asInt(b)
		if y >= 0 {
			return Int(ipow(x, y)), nil
		}
		if x == 0 {
			return nil, Raise(ExcZeroDivisionError, "0.0 cannot be raised to a negative power")
		}
		return Float(math.Pow(float64(x), float64(y))), nil
	}
	x, aok := asFloat(a)
	y, bok := asFloat(b)
	if !aok || !bok {
		return nil, binTypeError("** or pow()", a, b)
	}
	return Float(math.Pow(x, y)), nil
}

func ipow(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// IPow is the exported integer power for the compiled path.
func IPow(base, exp int64) int64 { return ipow(base, exp) }

// BitAnd, BitOr, BitXor, LShift, RShift implement the integer bit ops.
func BitAnd(a, b Value) (Value, error) {
	return bitOp(OpBitAnd, a, b, func(x, y int64) int64 { return x & y })
}

// BitOr implements Python |.
func BitOr(a, b Value) (Value, error) {
	return bitOp(OpBitOr, a, b, func(x, y int64) int64 { return x | y })
}

// BitXor implements Python ^.
func BitXor(a, b Value) (Value, error) {
	return bitOp(OpBitXor, a, b, func(x, y int64) int64 { return x ^ y })
}

// LShift implements Python <<.
func LShift(a, b Value) (Value, error) { return shift(OpLShift, a, b) }

// RShift implements Python >>.
func RShift(a, b Value) (Value, error) { return shift(OpRShift, a, b) }

func shift(op Op, a, b Value) (Value, error) {
	x, aok := asInt(a)
	y, bok := asInt(b)
	if !aok || !bok {
		return nil, binTypeError(op.String(), a, b)
	}
	n, k := ShiftInt(op == OpLShift, x, y)
	if k != ExcOK {
		return nil, Raise(k, "negative shift count")
	}
	return Int(n), nil
}

// ShiftInt is x << y (left) or x >> y. A negative count raises
// ValueError, as in Python; the boxed operators and the compiled path
// both shift through it.
func ShiftInt(left bool, x, y int64) (int64, ExcKind) {
	switch {
	case y < 0:
		return 0, ExcValueError
	case left:
		return x << uint64(y), ExcOK
	}
	return x >> uint64(y), ExcOK
}

func bitOp(op Op, a, b Value, f func(x, y int64) int64) (Value, error) {
	x, aok := asInt(a)
	y, bok := asInt(b)
	if !aok || !bok {
		return nil, binTypeError(op.String(), a, b)
	}
	return Int(f(x, y)), nil
}

// Neg implements unary -.
func Neg(v Value) (Value, error) {
	switch v := v.(type) {
	case Bool:
		if v {
			return Int(-1), nil
		}
		return Int(0), nil
	case Int:
		return -v, nil
	case Float:
		return -v, nil
	default:
		return nil, Raise(ExcTypeError, "bad operand type for unary -: %q", TypeName(v))
	}
}

// Pos implements unary +.
func Pos(v Value) (Value, error) {
	switch v := v.(type) {
	case Bool:
		if v {
			return Int(1), nil
		}
		return Int(0), nil
	case Int, Float:
		return v, nil
	default:
		return nil, Raise(ExcTypeError, "bad operand type for unary +: %q", TypeName(v))
	}
}

// Invert implements unary ~.
func Invert(v Value) (Value, error) {
	if x, ok := asInt(v); ok {
		return Int(^x), nil
	}
	return nil, Raise(ExcTypeError, "bad operand type for unary ~: %q", TypeName(v))
}

// Not implements `not v`.
func Not(v Value) Value { return Bool(!Truth(v)) }

// Compare applies the comparison op (one link of a chain) to a and b.
func Compare(op Op, a, b Value) (Value, error) {
	switch op {
	case OpEq:
		return Bool(Equal(a, b)), nil
	case OpNe:
		return Bool(!Equal(a, b)), nil
	case OpIs:
		return Bool(is(a, b)), nil
	case OpIsNot:
		return Bool(!is(a, b)), nil
	case OpIn:
		return Contains(b, a)
	case OpNotIn:
		v, err := Contains(b, a)
		if err != nil {
			return nil, err
		}
		return Bool(!bool(v.(Bool))), nil
	}
	if !op.IsOrder() {
		return nil, Raise(ExcUnsupported, "comparison operator %s", op)
	}
	if isNaN(a) && IsNumeric(b) || isNaN(b) && IsNumeric(a) {
		// NaN is unordered: every ordering against it is false, which
		// no three-way result expresses.
		return Bool(false), nil
	}
	c, err := order(a, b, op)
	if err != nil {
		return nil, err
	}
	switch op {
	case OpLt:
		return Bool(c < 0), nil
	case OpLe:
		return Bool(c <= 0), nil
	case OpGt:
		return Bool(c > 0), nil
	}
	return Bool(c >= 0), nil
}

// is approximates Python identity: exact for None/bool, value identity
// for small ints (close enough for UDF usage `x is None`).
func is(a, b Value) bool {
	if _, ok := a.(None); ok {
		_, ok2 := b.(None)
		return ok2
	}
	if ab, ok := a.(Bool); ok {
		bb, ok2 := b.(Bool)
		return ok2 && ab == bb
	}
	return Equal(a, b) && a.Kind() == b.Kind()
}

func isNaN(v Value) bool {
	f, ok := v.(Float)
	return ok && f != f
}

// order returns -1/0/1 for orderable pairs and a TypeError otherwise.
// Two ints order exactly, as in Python; other numeric pairs through
// float64.
func order(a, b Value, op Op) (int, error) {
	if x, ok := a.(Int); ok {
		if y, ok := b.(Int); ok {
			return cmp.Compare(x, y), nil
		}
	}
	if x, ok := asFloat(a); ok {
		if y, ok := asFloat(b); ok {
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if x, ok := a.(Str); ok {
		if y, ok := b.(Str); ok {
			return strings.Compare(string(x), string(y)), nil
		}
	}
	if x, ok := a.(*List); ok {
		if y, ok := b.(*List); ok {
			return orderSeq(x.Items, y.Items, op)
		}
	}
	if x, ok := a.(*Tuple); ok {
		if y, ok := b.(*Tuple); ok {
			return orderSeq(x.Items, y.Items, op)
		}
	}
	return 0, Raise(ExcTypeError, "%q not supported between instances of %q and %q", op.String(), TypeName(a), TypeName(b))
}

func orderSeq(a, b []Value, op Op) (int, error) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if Equal(a[i], b[i]) {
			continue
		}
		return order(a[i], b[i], op)
	}
	switch {
	case len(a) < len(b):
		return -1, nil
	case len(a) > len(b):
		return 1, nil
	default:
		return 0, nil
	}
}

// Contains implements `item in container`.
func Contains(container, item Value) (Value, error) {
	switch c := container.(type) {
	case Str:
		s, ok := item.(Str)
		if !ok {
			return nil, Raise(ExcTypeError, "'in <string>' requires string as left operand, not %s", TypeName(item))
		}
		return Bool(strings.Contains(string(c), string(s))), nil
	case *List:
		for _, it := range c.Items {
			if Equal(it, item) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case *Tuple:
		for _, it := range c.Items {
			if Equal(it, item) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case *Dict:
		s, ok := item.(Str)
		if !ok {
			return Bool(false), nil
		}
		_, found := c.Get(string(s))
		return Bool(found), nil
	default:
		return nil, Raise(ExcTypeError, "argument of type %q is not iterable", TypeName(container))
	}
}

// Len implements len().
func Len(v Value) (Value, error) {
	switch v := v.(type) {
	case Str:
		return Int(len(v)), nil
	case *List:
		return Int(len(v.Items)), nil
	case *Tuple:
		return Int(len(v.Items)), nil
	case *Dict:
		return Int(v.Len()), nil
	default:
		return nil, Raise(ExcTypeError, "object of type %q has no len()", TypeName(v))
	}
}

// GetIndex implements container[index] for non-slice indices.
func GetIndex(container, index Value) (Value, error) {
	switch c := container.(type) {
	case Str:
		i, ok := asInt(index)
		if !ok {
			return nil, Raise(ExcTypeError, "string indices must be integers, not %q", TypeName(index))
		}
		n := int64(len(c))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, Raise(ExcIndexError, "string index out of range")
		}
		return c[i : i+1], nil
	case *List:
		return seqIndex(c.Items, index, "list")
	case *Tuple:
		return seqIndex(c.Items, index, "tuple")
	case *Dict:
		s, ok := index.(Str)
		if !ok {
			return nil, Raise(ExcKeyError, "%s", Repr(index))
		}
		v, found := c.Get(string(s))
		if !found {
			return nil, Raise(ExcKeyError, "%s", Repr(index))
		}
		return v, nil
	case *Match:
		i, ok := asInt(index)
		if !ok {
			return nil, Raise(ExcIndexError, "no such group")
		}
		if i < 0 || int(i) >= len(c.Groups) {
			return nil, Raise(ExcIndexError, "no such group")
		}
		if !c.Present[i] {
			return None{}, nil
		}
		return Str(c.Groups[i]), nil
	case None:
		return nil, Raise(ExcTypeError, "'NoneType' object is not subscriptable")
	default:
		return nil, Raise(ExcTypeError, "%q object is not subscriptable", TypeName(container))
	}
}

func seqIndex(items []Value, index Value, what string) (Value, error) {
	i, ok := asInt(index)
	if !ok {
		return nil, Raise(ExcTypeError, "%s indices must be integers, not %q", what, TypeName(index))
	}
	n := int64(len(items))
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return nil, Raise(ExcIndexError, "%s index out of range", what)
	}
	return items[i], nil
}

// SetIndex implements container[index] = value (lists and dicts).
func SetIndex(container, index, value Value) error {
	switch c := container.(type) {
	case *List:
		i, ok := asInt(index)
		if !ok {
			return Raise(ExcTypeError, "list indices must be integers, not %q", TypeName(index))
		}
		n := int64(len(c.Items))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return Raise(ExcIndexError, "list assignment index out of range")
		}
		c.Items[i] = value
		return nil
	case *Dict:
		s, ok := index.(Str)
		if !ok {
			return Raise(ExcTypeError, "only str dict keys are supported, not %q", TypeName(index))
		}
		c.Set(string(s), value)
		return nil
	default:
		return Raise(ExcTypeError, "%q object does not support item assignment", TypeName(container))
	}
}

// SliceBounds resolves Python slice semantics for a sequence of length n:
// nil bounds, negative indices and clamping, with the given step. It
// returns the resolved start, stop and step. step must not be zero.
func SliceBounds(lo, hi *int64, step int64, n int64) (start, stop int64) {
	if step > 0 {
		start, stop = 0, n
	} else {
		start, stop = n-1, -1
	}
	clamp := func(i int64) int64 {
		if i < 0 {
			i += n
		}
		if step > 0 {
			if i < 0 {
				return 0
			}
			if i > n {
				return n
			}
		} else {
			if i < -1 {
				return -1
			}
			if i >= n {
				return n - 1
			}
		}
		return i
	}
	if lo != nil {
		start = clamp(*lo)
	}
	if hi != nil {
		stop = clamp(*hi)
	}
	return start, stop
}

// GetSlice implements container[lo:hi:step]; nil pointers mean omitted
// bounds.
func GetSlice(container Value, lo, hi, step *int64) (Value, error) {
	st := int64(1)
	if step != nil {
		st = *step
		if st == 0 {
			return nil, Raise(ExcValueError, "slice step cannot be zero")
		}
	}
	switch c := container.(type) {
	case Str:
		n := int64(len(c))
		start, stop := SliceBounds(lo, hi, st, n)
		if st == 1 {
			if start >= stop {
				return Str(""), nil
			}
			return c[start:stop], nil
		}
		var sb strings.Builder
		for i := start; (st > 0 && i < stop) || (st < 0 && i > stop); i += st {
			sb.WriteByte(c[i])
		}
		return Str(sb.String()), nil
	case *List:
		items, err := sliceSeq(c.Items, lo, hi, st)
		if err != nil {
			return nil, err
		}
		return &List{Items: items}, nil
	case *Tuple:
		items, err := sliceSeq(c.Items, lo, hi, st)
		if err != nil {
			return nil, err
		}
		return &Tuple{Items: items}, nil
	case None:
		return nil, Raise(ExcTypeError, "'NoneType' object is not subscriptable")
	default:
		return nil, Raise(ExcTypeError, "%q object is not subscriptable", TypeName(container))
	}
}

func sliceSeq(items []Value, lo, hi *int64, step int64) ([]Value, error) {
	n := int64(len(items))
	start, stop := SliceBounds(lo, hi, step, n)
	var out []Value
	for i := start; (step > 0 && i < stop) || (step < 0 && i > stop); i += step {
		out = append(out, items[i])
	}
	return out, nil
}

// ToInt implements int(v): truncation for floats, strict decimal parse
// (with surrounding whitespace allowed) for strings.
func ToInt(v Value) (Value, error) {
	switch v := v.(type) {
	case Bool:
		if v {
			return Int(1), nil
		}
		return Int(0), nil
	case Int:
		return v, nil
	case Float:
		f := float64(v)
		if math.IsNaN(f) {
			return nil, Raise(ExcValueError, "cannot convert float NaN to integer")
		}
		if math.IsInf(f, 0) {
			return nil, Raise(ExcOverflowError, "cannot convert float infinity to integer")
		}
		return Int(int64(math.Trunc(f))), nil
	case Str:
		return ParseIntStr(string(v))
	case None:
		return nil, Raise(ExcTypeError, "int() argument must be a string or a number, not 'NoneType'")
	default:
		return nil, Raise(ExcTypeError, "int() argument must be a string or a number, not %q", TypeName(v))
	}
}

// ParseIntStr parses an int literal the way Python's int(str) does:
// optional surrounding whitespace, optional sign, decimal digits with
// optional underscores between digits.
func ParseIntStr(s string) (Value, error) {
	t := strings.TrimSpace(s)
	clean := strings.ReplaceAll(t, "_", "")
	if clean == "" || strings.HasPrefix(clean, "__") {
		return nil, Raise(ExcValueError, "invalid literal for int() with base 10: %s", Repr(Str(s)))
	}
	n, err := strconv.ParseInt(clean, 10, 64)
	if err != nil {
		return nil, Raise(ExcValueError, "invalid literal for int() with base 10: %s", Repr(Str(s)))
	}
	return Int(n), nil
}

// ToFloat implements float(v).
func ToFloat(v Value) (Value, error) {
	switch v := v.(type) {
	case Bool:
		if v {
			return Float(1), nil
		}
		return Float(0), nil
	case Int:
		return Float(v), nil
	case Float:
		return v, nil
	case Str:
		return ParseFloatStr(string(v))
	case None:
		return nil, Raise(ExcTypeError, "float() argument must be a string or a number, not 'NoneType'")
	default:
		return nil, Raise(ExcTypeError, "float() argument must be a string or a number, not %q", TypeName(v))
	}
}

// ParseFloatStr parses a float literal the way Python's float(str) does.
func ParseFloatStr(s string) (Value, error) {
	t := strings.TrimSpace(strings.ReplaceAll(s, "_", ""))
	if t == "" {
		return nil, Raise(ExcValueError, "could not convert string to float: %s", Repr(Str(s)))
	}
	switch strings.ToLower(t) {
	case "inf", "+inf", "infinity", "+infinity":
		return Float(math.Inf(1)), nil
	case "-inf", "-infinity":
		return Float(math.Inf(-1)), nil
	case "nan", "+nan", "-nan":
		return Float(math.NaN()), nil
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return nil, Raise(ExcValueError, "could not convert string to float: %s", Repr(Str(s)))
	}
	return Float(f), nil
}

// Abs implements abs().
func Abs(v Value) (Value, error) {
	switch v := v.(type) {
	case Bool:
		if v {
			return Int(1), nil
		}
		return Int(0), nil
	case Int:
		if v < 0 {
			return -v, nil
		}
		return v, nil
	case Float:
		return Float(math.Abs(float64(v))), nil
	default:
		return nil, Raise(ExcTypeError, "bad operand type for abs(): %q", TypeName(v))
	}
}

// MinMax implements min()/max() over two or more arguments.
func MinMax(args []Value, wantMax bool) (Value, error) {
	if len(args) == 0 {
		return nil, Raise(ExcTypeError, "expected at least 1 argument, got 0")
	}
	items := args
	if len(args) == 1 {
		switch a := args[0].(type) {
		case *List:
			items = a.Items
		case *Tuple:
			items = a.Items
		default:
			return nil, Raise(ExcTypeError, "%q object is not iterable", TypeName(args[0]))
		}
		if len(items) == 0 {
			return nil, Raise(ExcValueError, "arg is an empty sequence")
		}
	}
	best := items[0]
	for _, it := range items[1:] {
		c, err := order(it, best, OpLt)
		if err != nil {
			return nil, err
		}
		if (wantMax && c > 0) || (!wantMax && c < 0) {
			best = it
		}
	}
	return best, nil
}

// Round implements round(x[, ndigits]) with banker's rounding like
// Python.
func Round(v Value, ndigits *int64) (Value, error) {
	f, ok := asFloat(v)
	if !ok {
		return nil, Raise(ExcTypeError, "type %s doesn't define __round__ method", TypeName(v))
	}
	if ndigits == nil {
		r := math.RoundToEven(f)
		return Int(int64(r)), nil
	}
	scale := math.Pow(10, float64(*ndigits))
	return Float(math.RoundToEven(f*scale) / scale), nil
}

func binTypeError(op string, a, b Value) error {
	return Raise(ExcTypeError, "unsupported operand type(s) for %s: %q and %q", op, TypeName(a), TypeName(b))
}
