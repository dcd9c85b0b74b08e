// Package rows defines the unboxed row representation shared by the
// compiled fast path, the generated CSV parser and the execution engine.
//
// A Slot is a tagged union holding one Python value without heap boxing;
// a row is a []Slot. The compiled normal-case path reads and writes Slots
// directly — this is the Go analog of the flat tuple memory layout
// Tuplex's LLVM-generated code operates on, and the reason the fast path
// avoids the allocation costs that dominate the boxed interpreter.
package rows

import (
	"strconv"
	"strings"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// Tag discriminates slot contents. It deliberately mirrors types.Kind for
// the kinds a slot can hold at runtime.
type Tag = types.Kind

// Slot is one unboxed value.
type Slot struct {
	Tag Tag
	B   bool
	I   int64
	F   float64
	S   string
	// Seq holds list/tuple elements.
	Seq []Slot
	// Obj is the boxed escape hatch for values the unboxed representation
	// does not model (dicts, match objects). The compiled path only
	// produces it for KindDict/KindMatch/KindAny slots; a dict it builds
	// holds the key list here and the values in Seq (DictKeys).
	Obj pyvalue.Value
}

// Convenience constructors.
func Null() Slot              { return Slot{Tag: types.KindNull} }
func Bool(b bool) Slot        { return Slot{Tag: types.KindBool, B: b} }
func I64(i int64) Slot        { return Slot{Tag: types.KindI64, I: i} }
func F64(f float64) Slot      { return Slot{Tag: types.KindF64, F: f} }
func Str(s string) Slot       { return Slot{Tag: types.KindStr, S: s} }
func List(elems []Slot) Slot  { return Slot{Tag: types.KindList, Seq: elems} }
func Tuple(elems []Slot) Slot { return Slot{Tag: types.KindTuple, Seq: elems} }

// Obj wraps a boxed value (dict, match, or anything else).
func Obj(v pyvalue.Value) Slot {
	switch v.(type) {
	case *pyvalue.Dict:
		return Slot{Tag: types.KindDict, Obj: v}
	case *pyvalue.Match:
		return Slot{Tag: types.KindMatch, Obj: v}
	default:
		return Slot{Tag: types.KindAny, Obj: v}
	}
}

// IsNull reports a None slot.
func (s Slot) IsNull() bool { return s.Tag == types.KindNull }

// Truth implements Python truthiness on slots.
func (s Slot) Truth() bool {
	switch s.Tag {
	case types.KindNull:
		return false
	case types.KindBool:
		return s.B
	case types.KindI64:
		return s.I != 0
	case types.KindF64:
		return s.F != 0
	case types.KindStr:
		return s.S != ""
	case types.KindList, types.KindTuple:
		return len(s.Seq) > 0
	case types.KindDict, types.KindMatch, types.KindAny:
		return pyvalue.Truth(s.Obj)
	default:
		return true
	}
}

// Value boxes the slot into a pyvalue (crossing from the fast path to the
// exception/fallback paths).
func (s Slot) Value() pyvalue.Value {
	switch s.Tag {
	case types.KindNull:
		return pyvalue.None{}
	case types.KindBool:
		return pyvalue.Bool(s.B)
	case types.KindI64:
		return pyvalue.Int(s.I)
	case types.KindF64:
		return pyvalue.Float(s.F)
	case types.KindStr:
		return pyvalue.Str(s.S)
	case types.KindList:
		items := make([]pyvalue.Value, len(s.Seq))
		for i, e := range s.Seq {
			items[i] = e.Value()
		}
		return &pyvalue.List{Items: items}
	case types.KindTuple:
		items := make([]pyvalue.Value, len(s.Seq))
		for i, e := range s.Seq {
			items[i] = e.Value()
		}
		return &pyvalue.Tuple{Items: items}
	case types.KindDict:
		if keys, ok := DictSlotKeys(s); ok {
			d := pyvalue.NewDict()
			for i, k := range keys {
				d.Set(k, s.Seq[i].Value())
			}
			return d
		}
		return s.Obj
	case types.KindMatch, types.KindAny:
		return s.Obj
	default:
		return pyvalue.None{}
	}
}

// DictKeys wraps a dict display's key list as the marker a fast-path dict
// slot carries in Obj, next to its values in Seq; the engine maps such a
// dict onto output columns by key order without building a boxed dict.
func DictKeys(keys []string) pyvalue.Value {
	items := make([]pyvalue.Value, len(keys))
	for i, k := range keys {
		items[i] = pyvalue.Str(k)
	}
	return &pyvalue.Tuple{Items: items}
}

// DictSlotKeys extracts the column names of a fast-path dict slot.
func DictSlotKeys(s Slot) ([]string, bool) {
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

// FromValue unboxes a pyvalue into a slot.
func FromValue(v pyvalue.Value) Slot {
	switch v := v.(type) {
	case pyvalue.None:
		return Null()
	case pyvalue.Bool:
		return Bool(bool(v))
	case pyvalue.Int:
		return I64(int64(v))
	case pyvalue.Float:
		return F64(float64(v))
	case pyvalue.Str:
		return Str(string(v))
	case *pyvalue.List:
		elems := make([]Slot, len(v.Items))
		for i, it := range v.Items {
			elems[i] = FromValue(it)
		}
		return List(elems)
	case *pyvalue.Tuple:
		elems := make([]Slot, len(v.Items))
		for i, it := range v.Items {
			elems[i] = FromValue(it)
		}
		return Tuple(elems)
	default:
		return Obj(v)
	}
}

// Equal compares two slots with Python == semantics: two ints exactly,
// other numeric pairs through float64.
func Equal(a, b Slot) bool {
	switch a.Tag {
	case types.KindBool, types.KindI64, types.KindF64:
		if a.Tag == types.KindI64 && b.Tag == types.KindI64 {
			return a.I == b.I
		}
		an, aok := a.numeric()
		bn, bok := b.numeric()
		return aok && bok && an == bn
	case types.KindNull:
		return b.Tag == types.KindNull
	case types.KindStr:
		return b.Tag == types.KindStr && a.S == b.S
	case types.KindList, types.KindTuple:
		if b.Tag != a.Tag || len(a.Seq) != len(b.Seq) {
			return false
		}
		for i := range a.Seq {
			if !Equal(a.Seq[i], b.Seq[i]) {
				return false
			}
		}
		return true
	default:
		return pyvalue.Equal(a.Value(), b.Value())
	}
}

func (s Slot) numeric() (float64, bool) {
	switch s.Tag {
	case types.KindBool:
		if s.B {
			return 1, true
		}
		return 0, true
	case types.KindI64:
		return float64(s.I), true
	case types.KindF64:
		return s.F, true
	default:
		return 0, false
	}
}

// Matches reports whether the slot's runtime tag satisfies the static
// type t (used by the row classifier and by tests).
func Matches(s Slot, t types.Type) bool {
	switch t.Kind() {
	case types.KindAny:
		return true
	case types.KindOption:
		return s.Tag == types.KindNull || Matches(s, t.Elem())
	case types.KindNull:
		return s.Tag == types.KindNull
	case types.KindList:
		if s.Tag != types.KindList {
			return false
		}
		for _, e := range s.Seq {
			if !Matches(e, t.Elem()) {
				return false
			}
		}
		return true
	case types.KindTuple:
		if s.Tag != types.KindTuple || len(s.Seq) != len(t.Elts()) {
			return false
		}
		for i, e := range s.Seq {
			if !Matches(e, t.Elts()[i]) {
				return false
			}
		}
		return true
	default:
		return s.Tag == t.Kind()
	}
}

// Render writes the slot as a CSV cell body (quoting is the writer's
// job): Python str() of the value, with None rendered as empty.
func (s Slot) Render(sb *strings.Builder) {
	switch s.Tag {
	case types.KindNull:
	case types.KindBool:
		if s.B {
			sb.WriteString("True")
		} else {
			sb.WriteString("False")
		}
	case types.KindI64:
		sb.WriteString(strconv.FormatInt(s.I, 10))
	case types.KindF64:
		sb.WriteString(pyvalue.FloatRepr(s.F))
	case types.KindStr:
		sb.WriteString(s.S)
	default:
		sb.WriteString(pyvalue.ToStr(s.Value()))
	}
}

// RenderString is Render into a fresh string.
func (s Slot) RenderString() string {
	var sb strings.Builder
	s.Render(&sb)
	return sb.String()
}

// AppendRender appends the CSV cell body of the slot to dst — the
// allocation-free analog of Render used by the byte-based CSV writer.
// Must stay byte-identical with Render.
func (s Slot) AppendRender(dst []byte) []byte {
	switch s.Tag {
	case types.KindNull:
		return dst
	case types.KindBool:
		if s.B {
			return append(dst, "True"...)
		}
		return append(dst, "False"...)
	case types.KindI64:
		return strconv.AppendInt(dst, s.I, 10)
	case types.KindF64:
		return pyvalue.AppendFloatRepr(dst, s.F)
	case types.KindStr:
		return append(dst, s.S...)
	default:
		return append(dst, pyvalue.ToStr(s.Value())...)
	}
}

// Row is one data row on the compiled path.
type Row = []Slot

// CopyRow returns an independent copy of r (Seq slices shared; the fast
// path never mutates sequence elements in place).
func CopyRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowToValues boxes a whole row.
func RowToValues(r Row) []pyvalue.Value {
	out := make([]pyvalue.Value, len(r))
	for i, s := range r {
		out[i] = s.Value()
	}
	return out
}

// RowFromValues unboxes a whole row.
func RowFromValues(vs []pyvalue.Value) Row {
	out := make(Row, len(vs))
	for i, v := range vs {
		out[i] = FromValue(v)
	}
	return out
}

// DictRow boxes a row as a Python dict keyed by column names (the
// fallback path's row representation for dict-style UDF access).
func DictRow(names []string, r Row) *pyvalue.Dict {
	d := pyvalue.NewDict()
	for i, n := range names {
		d.Set(n, r[i].Value())
	}
	return d
}

// TupleRow boxes a row as a Python tuple (tuple-style UDF access).
func TupleRow(r Row) *pyvalue.Tuple {
	return &pyvalue.Tuple{Items: RowToValues(r)}
}
