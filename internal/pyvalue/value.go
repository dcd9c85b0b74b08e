// Package pyvalue implements boxed Python runtime values and their
// operator semantics. It is the object model of Tuplex's fallback path
// (the "Python interpreter" of the paper) and of the interpreter-based
// baseline engines. Values are deliberately boxed behind an interface so
// the fallback path pays the allocation and dynamic-dispatch costs that
// make interpreted Python slow; the compiled paths use unboxed slots
// instead (see internal/codegen).
//
// Every Python operator is an Op code, which the parser stores in the
// AST and every tier dispatches on; Binary, Unary and Compare are the
// one boxed implementation of the operators (op.go).
//
// Deviations from CPython, documented per the paper's own prototype
// scope: integers are 64-bit (no big ints), dict keys are strings, and
// unsupported library surface raises ExcUnsupported which routes the row
// to a failure report.
package pyvalue

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates boxed value kinds.
type Kind uint8

const (
	KNone Kind = iota
	KBool
	KInt
	KFloat
	KStr
	KList
	KTuple
	KDict
	KMatch
	KFunc
)

func (k Kind) String() string {
	switch k {
	case KNone:
		return "NoneType"
	case KBool:
		return "bool"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "str"
	case KList:
		return "list"
	case KTuple:
		return "tuple"
	case KDict:
		return "dict"
	case KMatch:
		return "re.Match"
	case KFunc:
		return "function"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a boxed Python value.
type Value interface {
	Kind() Kind
}

// None is Python's None singleton type.
type None struct{}

// Bool is a Python bool.
type Bool bool

// Int is a Python int (64-bit in this implementation).
type Int int64

// Float is a Python float.
type Float float64

// Str is a Python str. It is assumed to hold UTF-8; indexing is by byte
// for the ASCII-dominated data the pipelines process (the paper's
// prototype makes the same simplification for CSV data).
type Str string

// List is a mutable Python list.
type List struct{ Items []Value }

// Tuple is an immutable Python tuple.
type Tuple struct{ Items []Value }

// Dict is a Python dict with string keys, preserving insertion order.
type Dict struct {
	keys []string
	m    map[string]Value
}

// Match is the result of a successful re.search.
type Match struct {
	// Groups[0] is the whole match; further entries are capture groups.
	Groups []string
	// Present[i] reports whether group i participated in the match.
	Present []bool
}

// Func is a callable value (builtin or interpreted function), opaque to
// this package.
type Func struct {
	Name string
	// Call executes the function. It is installed by the interpreter.
	Call func(args []Value) (Value, error)
}

func (None) Kind() Kind   { return KNone }
func (Bool) Kind() Kind   { return KBool }
func (Int) Kind() Kind    { return KInt }
func (Float) Kind() Kind  { return KFloat }
func (Str) Kind() Kind    { return KStr }
func (*List) Kind() Kind  { return KList }
func (*Tuple) Kind() Kind { return KTuple }
func (*Dict) Kind() Kind  { return KDict }
func (*Match) Kind() Kind { return KMatch }
func (*Func) Kind() Kind  { return KFunc }

// NewDict returns an empty dict.
func NewDict() *Dict { return &Dict{m: make(map[string]Value)} }

// DictFromPairs builds a dict preserving pair order.
func DictFromPairs(keys []string, vals []Value) *Dict {
	d := &Dict{keys: make([]string, 0, len(keys)), m: make(map[string]Value, len(keys))}
	for i, k := range keys {
		d.Set(k, vals[i])
	}
	return d
}

// Set inserts or updates a key.
func (d *Dict) Set(k string, v Value) {
	if _, ok := d.m[k]; !ok {
		d.keys = append(d.keys, k)
	}
	d.m[k] = v
}

// Get looks up a key.
func (d *Dict) Get(k string) (Value, bool) {
	v, ok := d.m[k]
	return v, ok
}

// Len reports the number of entries.
func (d *Dict) Len() int { return len(d.keys) }

// Keys returns the keys in insertion order. The caller must not mutate the
// returned slice.
func (d *Dict) Keys() []string { return d.keys }

// SortedKeys returns the keys sorted lexicographically (used by
// sorted(d) style operations and deterministic output).
func (d *Dict) SortedKeys() []string {
	ks := append([]string(nil), d.keys...)
	sort.Strings(ks)
	return ks
}

// Truth implements Python truthiness.
func Truth(v Value) bool {
	switch v := v.(type) {
	case None:
		return false
	case Bool:
		return bool(v)
	case Int:
		return v != 0
	case Float:
		return v != 0
	case Str:
		return v != ""
	case *List:
		return len(v.Items) > 0
	case *Tuple:
		return len(v.Items) > 0
	case *Dict:
		return v.Len() > 0
	case *Match:
		return true
	default:
		return true
	}
}

// Equal implements Python ==. Values of unrelated types compare unequal
// rather than raising; numeric kinds compare by value, two ints exactly.
func Equal(a, b Value) bool {
	if ai, ok := a.(Int); ok {
		if bi, ok := b.(Int); ok {
			return ai == bi
		}
	}
	if an, aok := asFloat(a); aok {
		if bn, bok := asFloat(b); bok {
			return an == bn
		}
		return false
	}
	switch a := a.(type) {
	case None:
		_, ok := b.(None)
		return ok
	case Str:
		bs, ok := b.(Str)
		return ok && a == bs
	case *List:
		bl, ok := b.(*List)
		return ok && equalSeq(a.Items, bl.Items)
	case *Tuple:
		bt, ok := b.(*Tuple)
		return ok && equalSeq(a.Items, bt.Items)
	case *Dict:
		bd, ok := b.(*Dict)
		if !ok || a.Len() != bd.Len() {
			return false
		}
		for _, k := range a.keys {
			bv, ok := bd.m[k]
			if !ok || !Equal(a.m[k], bv) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func equalSeq(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// asFloat converts numeric values (bool/int/float) to float64.
func asFloat(v Value) (float64, bool) {
	switch v := v.(type) {
	case Bool:
		if v {
			return 1, true
		}
		return 0, true
	case Int:
		return float64(v), true
	case Float:
		return float64(v), true
	default:
		return 0, false
	}
}

// asInt converts bool/int to int64 (no float coercion, like Python's
// index protocol).
func asInt(v Value) (int64, bool) {
	switch v := v.(type) {
	case Bool:
		if v {
			return 1, true
		}
		return 0, true
	case Int:
		return int64(v), true
	default:
		return 0, false
	}
}

// IsNumeric reports whether v is bool, int, or float.
func IsNumeric(v Value) bool {
	switch v.(type) {
	case Bool, Int, Float:
		return true
	}
	return false
}

// isIntLike reports bool-or-int.
func isIntLike(v Value) bool {
	switch v.(type) {
	case Bool, Int:
		return true
	}
	return false
}

// Repr renders v like Python's repr().
func Repr(v Value) string {
	switch v := v.(type) {
	case None:
		return "None"
	case Bool:
		if v {
			return "True"
		}
		return "False"
	case Int:
		return fmt.Sprintf("%d", int64(v))
	case Float:
		return FloatRepr(float64(v))
	case Str:
		return "'" + strings.ReplaceAll(strings.ReplaceAll(string(v), `\`, `\\`), "'", `\'`) + "'"
	case *List:
		return "[" + joinRepr(v.Items) + "]"
	case *Tuple:
		if len(v.Items) == 1 {
			return "(" + Repr(v.Items[0]) + ",)"
		}
		return "(" + joinRepr(v.Items) + ")"
	case *Dict:
		parts := make([]string, 0, v.Len())
		for _, k := range v.keys {
			parts = append(parts, Repr(Str(k))+": "+Repr(v.m[k]))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Match:
		return "<re.Match object>"
	case *Func:
		return "<function " + v.Name + ">"
	default:
		return fmt.Sprintf("<%v>", v)
	}
}

func joinRepr(items []Value) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = Repr(it)
	}
	return strings.Join(parts, ", ")
}

// ToStr renders v like Python's str().
func ToStr(v Value) string {
	if s, ok := v.(Str); ok {
		return string(s)
	}
	return Repr(v)
}

// FloatRepr renders a float like CPython's repr: shortest round-trip
// decimal, always with a decimal point or exponent, switching to
// exponent notation below 1e-4 and at 1e16 and above.
func FloatRepr(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	abs := math.Abs(f)
	if f == math.Trunc(f) && abs < 1e16 {
		return fmt.Sprintf("%.1f", f)
	}
	if abs != 0 && (abs < 1e-4 || abs >= 1e16) {
		s := fmt.Sprintf("%g", f)
		// Go renders 1e+20 like Python; normalize exponent digits
		// (Python drops a leading zero in two-digit exponents: 1e-05 in
		// Python is 1e-05 — CPython keeps two digits only below e-05).
		return normalizeExp(s)
	}
	s := fmt.Sprintf("%g", f)
	if strings.ContainsAny(s, "eE") {
		// %g switched to exponent earlier than Python would; force
		// positional notation.
		s = fmt.Sprintf("%.17g", f)
		if strings.ContainsAny(s, "eE") {
			return normalizeExp(s)
		}
	}
	return s
}

// AppendFloatRepr appends FloatRepr(f) to dst without allocating on the
// common spellings (integral floats and positional shortest-repr); the
// exponent-notation spellings fall back to FloatRepr. The two must stay
// byte-identical — the columnar CSV renderer uses this while the boxed
// paths use FloatRepr, and the differential suites compare their output.
func AppendFloatRepr(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, FloatRepr(f)...)
	}
	abs := math.Abs(f)
	if f == math.Trunc(f) && abs < 1e16 {
		return strconv.AppendFloat(dst, f, 'f', 1, 64)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	for i := start; i < len(dst); i++ {
		if dst[i] == 'e' || dst[i] == 'E' {
			// Exponent spelling: FloatRepr applies extra normalization
			// (forced positional, exponent casing) — defer to it.
			return append(dst[:start], FloatRepr(f)...)
		}
	}
	return dst
}

func normalizeExp(s string) string {
	// Python prints single-digit exponents with two digits: 1e+20 stays,
	// 1e-05 stays; Go matches closely enough — just ensure 'e' casing.
	return strings.ToLower(s)
}

// TypeName returns Python's name for v's type, used in error messages.
func TypeName(v Value) string {
	if v == nil {
		return "NoneType"
	}
	return v.Kind().String()
}

// Copy returns a deep copy of v. Used by engines that must simulate
// serialization boundaries (e.g. the Spark-analog's JVM↔Python worker
// hop).
func Copy(v Value) Value {
	switch v := v.(type) {
	case *List:
		items := make([]Value, len(v.Items))
		for i, it := range v.Items {
			items[i] = Copy(it)
		}
		return &List{Items: items}
	case *Tuple:
		items := make([]Value, len(v.Items))
		for i, it := range v.Items {
			items[i] = Copy(it)
		}
		return &Tuple{Items: items}
	case *Dict:
		d := &Dict{keys: append([]string(nil), v.keys...), m: make(map[string]Value, len(v.keys))}
		for k, val := range v.m {
			d.m[k] = Copy(val)
		}
		return d
	default:
		return v
	}
}
