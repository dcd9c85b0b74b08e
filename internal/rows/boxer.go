package rows

import (
	"slices"
	"unsafe"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// AnyValue converts a boxed pyvalue into the plain-Go `any` form the
// public API hands back: nil (for None or a nil Value), bool, int64,
// float64, string, []any for sequences, map[string]any for dicts, and
// str() as the escape hatch.
func AnyValue(v pyvalue.Value) any {
	switch v := v.(type) {
	case nil, pyvalue.None:
		return nil
	case pyvalue.Bool:
		return bool(v)
	case pyvalue.Int:
		return int64(v)
	case pyvalue.Float:
		return float64(v)
	case pyvalue.Str:
		return string(v)
	case *pyvalue.List:
		out := make([]any, len(v.Items))
		for i, it := range v.Items {
			out[i] = AnyValue(it)
		}
		return out
	case *pyvalue.Tuple:
		out := make([]any, len(v.Items))
		for i, it := range v.Items {
			out[i] = AnyValue(it)
		}
		return out
	case *pyvalue.Dict:
		out := map[string]any{}
		for _, k := range v.Keys() {
			val, _ := v.Get(k)
			out[k] = AnyValue(val)
		}
		return out
	default:
		return pyvalue.ToStr(v)
	}
}

// Boxer batch-converts unboxed values into `any` values without one heap
// allocation per cell. Converting a scalar to `any` normally allocates
// (only int64 values 0..255 hit the runtime's static box cache); the
// boxer instead appends the payload to a typed slab and hand-builds the
// interface value as {type word, pointer into slab}, so a million-cell
// result costs a handful of slab allocations instead of a million boxes.
// Reserve presizes the slabs to the cells about to be boxed, after which
// no slab reallocates.
//
// Safety: issued interface values hold interior pointers into the slab
// arrays. Slab growth (boxing past a Reserve) reallocates, but the
// superseded arrays stay reachable through those interior pointers and
// slab cells are never mutated after issue, so every issued value stays
// valid. The layout assumption (eface = {typ, data}) is verified at init
// by a round-trip self-test; if it ever fails the boxer degrades to
// ordinary boxing.
//
// A Boxer is single-goroutine state; use one per merge/collect task.
type Boxer struct {
	i64  []int64
	f64  []float64
	str  []string
	anys []any
}

// eface mirrors the runtime's empty-interface header.
type eface struct{ typ, data unsafe.Pointer }

func typePtr(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

var (
	i64Type = typePtr(int64(0))
	f64Type = typePtr(float64(0))
	strType = typePtr("")

	// fastEface gates the slab path on the runtime actually using the
	// assumed interface layout.
	fastEface = efaceSelfTest()
)

func slabFace(typ, data unsafe.Pointer) any {
	var out any
	e := (*eface)(unsafe.Pointer(&out))
	e.typ = typ
	e.data = data
	return out
}

func efaceSelfTest() bool {
	i, f, s := int64(123456), 2.5, "tuplex"
	iv, iok := slabFace(i64Type, unsafe.Pointer(&i)).(int64)
	fv, fok := slabFace(f64Type, unsafe.Pointer(&f)).(float64)
	sv, sok := slabFace(strType, unsafe.Pointer(&s)).(string)
	return iok && fok && sok && iv == i && fv == f && sv == s
}

// SlabInt reports whether boxing x takes an integer slab cell: 0..255
// come from the runtime's static box cache instead.
func SlabInt(x int64) bool { return x < 0 || x > 255 }

// Reserve presizes the slabs for cells more Cells cells and ints, floats
// and strs more I64 (SlabInt values only), F64 and Str values, so boxing
// no more than that never reallocates a slab.
func (b *Boxer) Reserve(cells, ints, floats, strs int) {
	b.anys = grow(b.anys, cells)
	if fastEface {
		b.i64 = grow(b.i64, ints)
		b.f64 = grow(b.f64, floats)
		b.str = grow(b.str, strs)
	}
}

// grow returns s with room for n more elements, reallocating (once, to
// exactly that) only when it has less.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Cells carves n consecutive cells off the []any slab for one row
// (capped, so later carves never alias it). Past a Reserve the slab grows
// geometrically, like append.
func (b *Boxer) Cells(n int) []any {
	start := len(b.anys)
	b.anys = slices.Grow(b.anys, n)[:start+n]
	return b.anys[start : start+n : start+n]
}

// I64 boxes an integer.
func (b *Boxer) I64(x int64) any {
	if !fastEface || !SlabInt(x) {
		return x
	}
	b.i64 = append(b.i64, x)
	return slabFace(i64Type, unsafe.Pointer(&b.i64[len(b.i64)-1]))
}

// F64 boxes a float.
func (b *Boxer) F64(f float64) any {
	if !fastEface {
		return f
	}
	b.f64 = append(b.f64, f)
	return slabFace(f64Type, unsafe.Pointer(&b.f64[len(b.f64)-1]))
}

// Str boxes a string. The boxed value shares s's bytes.
func (b *Boxer) Str(s string) any {
	if !fastEface {
		return s
	}
	b.str = append(b.str, s)
	return slabFace(strType, unsafe.Pointer(&b.str[len(b.str)-1]))
}

// Box converts one slot into the form AnyValue gives its boxed value.
func (b *Boxer) Box(s Slot) any {
	switch s.Tag {
	case types.KindNull:
		return nil
	case types.KindBool:
		return s.B
	case types.KindI64:
		return b.I64(s.I)
	case types.KindF64:
		return b.F64(s.F)
	case types.KindStr:
		return b.Str(s.S)
	default:
		return AnyValue(s.Value())
	}
}
