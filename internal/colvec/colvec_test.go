package colvec

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

func TestBitmap(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(200) {
		t.Fatal("empty bitmap must read false")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Fatalf("bit %d lost", i)
		}
	}
	if b.Get(1) || b.Get(65) || b.Get(199) {
		t.Fatal("unset bits read true")
	}
	b.truncate(64)
	if b.Get(64) || b.Get(200) {
		t.Fatal("truncate(64) must clear bits >= 64")
	}
	if !b.Get(63) {
		t.Fatal("truncate(64) must keep bit 63")
	}
	b.Reset()
	if b.Get(0) || b.Get(63) {
		t.Fatal("reset must clear everything")
	}
}

func TestVecAppendAndRead(t *testing.T) {
	iv := NewVec(types.I64)
	iv.AppendI64(7)
	iv.AppendI64(-3)
	if iv.Len() != 2 || iv.Slot(0).I != 7 || iv.Slot(1).I != -3 {
		t.Fatalf("int vec roundtrip: %+v", iv)
	}

	sv := NewVec(types.Str)
	sv.AppendStrBytes([]byte("hello"))
	sv.AppendStr("")
	sv.AppendStrBytes([]byte("wörld"))
	if sv.Str(0) != "hello" || sv.Str(1) != "" || sv.Str(2) != "wörld" {
		t.Fatalf("str vec roundtrip: %q %q %q", sv.Str(0), sv.Str(1), sv.Str(2))
	}
	if string(sv.RawStr(2)) != "wörld" {
		t.Fatalf("raw str: %q", sv.RawStr(2))
	}
	// Sealed strings must survive vector reuse (Reset + refill).
	kept := sv.Str(0)
	sv.Reset()
	sv.AppendStr("XXXXXXXX")
	if kept != "hello" {
		t.Fatalf("sealed string corrupted by reuse: %q", kept)
	}
}

func TestVecNulls(t *testing.T) {
	v := NewVec(types.Option(types.I64))
	if v.Kind != types.KindI64 || !v.Nullable {
		t.Fatalf("option vec: kind=%v nullable=%v", v.Kind, v.Nullable)
	}
	v.AppendI64(1)
	v.AppendNull()
	v.AppendI64(3)
	if v.IsNull(0) || !v.IsNull(1) || v.IsNull(2) {
		t.Fatal("null bitmap wrong")
	}
	if !v.Slot(1).IsNull() || v.Slot(2).I != 3 {
		t.Fatal("null slot readback wrong")
	}

	nv := NewVec(types.Null)
	nv.AppendUnit()
	if !nv.IsNull(0) || !nv.Slot(0).IsNull() {
		t.Fatal("all-null column must read null")
	}
}

// TestVecReserve checks that a fresh vector reserved for n rows takes n
// appends without regrowing its payload.
func TestVecReserve(t *testing.T) {
	const n = 2500
	for _, ty := range []types.Type{types.I64, types.F64, types.Bool, types.Str} {
		v := NewVec(ty)
		v.Reserve(n)
		caps := func() [5]int { return [5]int{cap(v.B), cap(v.I), cap(v.F), cap(v.Off), cap(v.SLen)} }
		reserved := caps()
		for i := range n {
			switch ty.Kind() {
			case types.KindI64:
				v.AppendI64(int64(i))
			case types.KindF64:
				v.AppendF64(float64(i))
			case types.KindBool:
				v.AppendBool(i%2 == 0)
			case types.KindStr:
				v.AppendStrBytes(nil)
			}
		}
		if v.Len() != n || caps() != reserved {
			t.Fatalf("%v: %d rows, payload capacities %v after the appends, %v reserved", ty, v.Len(), caps(), reserved)
		}
	}
}

func TestVecTruncate(t *testing.T) {
	v := NewVec(types.Option(types.Str))
	v.AppendStr("aa")
	v.AppendNull()
	v.AppendStr("ccc")
	v.Truncate(2)
	if v.Len() != 2 {
		t.Fatalf("len after truncate: %d", v.Len())
	}
	v.AppendStr("dd")
	if v.Str(2) != "dd" || v.Str(0) != "aa" {
		t.Fatalf("truncate+append: %q %q", v.Str(2), v.Str(0))
	}
	if !v.IsNull(1) || v.IsNull(2) {
		t.Fatal("null bits after truncate")
	}
	// Truncating across a null must clear the bit for the re-used row.
	v.Truncate(1)
	v.AppendStr("ee")
	if v.IsNull(1) {
		t.Fatal("truncate must clear null bit of rolled-back row")
	}
}

func TestVecDenseSet(t *testing.T) {
	v := NewVec(types.Str)
	v.Grow(5)
	// Writes at selected rows only (ascending), holes untouched.
	v.SetStr(1, "one")
	v.SetStr(3, "three")
	if v.Str(1) != "one" || v.Str(3) != "three" {
		t.Fatalf("dense set: %q %q", v.Str(1), v.Str(3))
	}

	f := NewVec(types.F64)
	f.Grow(3)
	f.SetF64(2, 2.5)
	if f.Slot(2).F != 2.5 {
		t.Fatal("dense f64 set")
	}

	o := NewVec(types.Option(types.I64))
	o.Grow(4)
	o.SetI64(0, 9)
	o.SetNull(2)
	if o.IsNull(0) || !o.IsNull(2) {
		t.Fatal("dense null set")
	}
}

func TestVecSetDispatch(t *testing.T) {
	v := NewVec(types.Option(types.I64))
	v.Grow(2)
	v.Set(0, rows.I64(42))
	v.Set(1, rows.Null())
	if v.Slot(0).I != 42 || !v.Slot(1).IsNull() {
		t.Fatal("Set dispatch wrong")
	}

	esc := NewVec(types.List(types.I64))
	if esc.Kind != types.KindAny {
		t.Fatalf("list column must use the escape kind, got %v", esc.Kind)
	}
	esc.Grow(1)
	esc.Set(0, rows.List([]rows.Slot{rows.I64(1), rows.I64(2)}))
	s := esc.Slot(0)
	if s.Tag != types.KindList || len(s.Seq) != 2 {
		t.Fatalf("escape slot roundtrip: %+v", s)
	}
}

func TestBatchBridges(t *testing.T) {
	a := NewVec(types.I64)
	b := NewVec(types.Str)
	for i := 0; i < 4; i++ {
		a.AppendI64(int64(i * 10))
		b.AppendStr(string(rune('a' + i)))
	}
	batch := &Batch{Cols: []*Vec{a, b}, N: 4}

	buf := make(rows.Row, 2)
	row := batch.ReadRow(2, buf)
	if row[0].I != 20 || row[1].S != "c" {
		t.Fatalf("ReadRow: %+v", row)
	}

	sel := []int32{0, 2, 3}
	got := batch.GatherRows(sel)
	if len(got) != 3 || got[1][0].I != 20 || got[2][1].S != "d" {
		t.Fatalf("GatherRows: %+v", got)
	}
	// Bulk backing must still give independent rows.
	got[0][0] = rows.I64(999)
	if got[1][0].I != 20 {
		t.Fatal("gathered rows alias each other")
	}

	if v := batch.BoxValue(1, 1); pyvalue.ToStr(v) != "b" {
		t.Fatalf("BoxValue: %v", v)
	}
}

func TestVecReuseAcrossBatches(t *testing.T) {
	v := NewVec(types.Option(types.Str))
	v.AppendStr("x")
	v.AppendNull()
	v.Reset()
	if v.Len() != 0 {
		t.Fatal("reset length")
	}
	v.AppendStr("fresh")
	if v.IsNull(0) {
		t.Fatal("null bit leaked across reset")
	}
	if v.Str(0) != "fresh" {
		t.Fatalf("reuse read: %q", v.Str(0))
	}
}

func TestSealedStringsSurviveBufferReuse(t *testing.T) {
	// Seal returns aliasing views of the bytes buffer; Reset must donate
	// an aliased buffer to its strings rather than rewrite it in place.
	v := NewVec(types.Str)
	v.AppendStr("alpha")
	v.AppendStr("beta")
	a, b := v.Str(0), v.Str(1)
	v.Reset()
	v.AppendStr("XXXXXXXXXX") // would overwrite "alphabeta" if shared
	if a != "alpha" || b != "beta" {
		t.Fatalf("sealed strings corrupted by reuse: %q, %q", a, b)
	}
	if v.Str(0) != "XXXXXXXXXX" {
		t.Fatalf("post-reset read: %q", v.Str(0))
	}
}

func TestSealAfterAppendExtends(t *testing.T) {
	// Appends after a seal must be visible through a re-seal while the
	// earlier view stays intact.
	v := NewVec(types.Str)
	v.AppendStr("one")
	first := v.Str(0)
	v.AppendStr("two")
	if v.Str(1) != "two" || first != "one" {
		t.Fatalf("re-seal views: %q, %q", first, v.Str(1))
	}
	// Unsealed batches (no string reads) keep reusing their buffer.
	w := NewVec(types.Str)
	w.AppendStr("abc")
	before := cap(w.Bytes)
	w.Reset()
	if cap(w.Bytes) != before {
		t.Fatal("unsealed reset should keep the buffer")
	}
}

// Box reads each kind's payload into the value rows.AnyValue gives the
// cell, and SlabCells counts the slab cells those boxes take: boxing
// into a Boxer reserved with them allocates nothing more.
func TestVecBoxMatchesAnyValue(t *testing.T) {
	cases := []struct {
		typ                types.Type
		cells              []rows.Slot
		ints, floats, strs int
	}{
		{types.Option(types.I64), []rows.Slot{rows.I64(0), rows.I64(255), rows.I64(256), rows.I64(-1), rows.Null()}, 2, 0, 0},
		{types.Option(types.F64), []rows.Slot{rows.F64(-0.5), rows.Null(), rows.F64(2)}, 0, 2, 0},
		{types.Option(types.Str), []rows.Slot{rows.Str("a"), rows.Null(), rows.Str("")}, 0, 0, 2},
		{types.Option(types.Bool), []rows.Slot{rows.Bool(true), rows.Null()}, 0, 0, 0},
		{types.Null, []rows.Slot{rows.Null(), rows.Null()}, 0, 0, 0},
		{types.Any, []rows.Slot{rows.I64(300), rows.Str("s"), rows.List([]rows.Slot{rows.I64(1)})}, 1, 0, 1},
	}
	for _, tc := range cases {
		src := NewVec(tc.typ)
		var sel []int32
		for i, s := range tc.cells {
			src.AppendSlot(s)
			sel = append(sel, int32(i))
		}
		v := NewVec(tc.typ)
		v.AppendSel(src, sel)
		if i, f, s := v.SlabCells(v.Len()); i != tc.ints || f != tc.floats || s != tc.strs {
			t.Fatalf("%s: SlabCells = %d, %d, %d; want %d, %d, %d", tc.typ, i, f, s, tc.ints, tc.floats, tc.strs)
		}
		var b rows.Boxer
		for i, s := range tc.cells {
			if got, want := v.Box(&b, i), rows.AnyValue(s.Value()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s row %d: Box = %#v, want %#v", tc.typ, i, got, want)
			}
		}
		if tc.typ.Kind() == types.KindAny {
			continue // boxing a list allocates the []any
		}
		slabs := 0
		for _, n := range []int{tc.ints, tc.floats, tc.strs} {
			if n > 0 {
				slabs++
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			var b rows.Boxer
			b.Reserve(0, tc.ints, tc.floats, tc.strs)
			for i := range v.Len() {
				v.Box(&b, i)
			}
		})
		if int(allocs) > slabs {
			t.Fatalf("%s: boxing a reserved column allocates %.0f times, want the %d slabs", tc.typ, allocs, slabs)
		}
	}
}

// A cell the vector's kind cannot hold turns it into an escape vector;
// every cell, earlier ones included, reads back as written.
func TestVecAppendCellWidens(t *testing.T) {
	v := NewVec(types.I64)
	in := []rows.Slot{rows.I64(5), rows.Null(), rows.Bool(true), rows.Str("x"), rows.I64(7)}
	for _, s := range in {
		v.AppendCell(s)
	}
	if v.Kind != types.KindAny || v.Len() != len(in) {
		t.Fatalf("kind %v, len %d after a bool cell", v.Kind, v.Len())
	}
	for i, s := range in {
		if got := v.Slot(i); !rows.Equal(got, s) || got.Tag != s.Tag {
			t.Fatalf("row %d = %+v, want %+v", i, got, s)
		}
	}
}

// Clip keeps the first rows and gives their strings a buffer of their own.
func TestVecClip(t *testing.T) {
	v := NewVec(types.Str)
	for _, s := range []string{"ab", "cde", "fghij"} {
		v.AppendStr(s)
	}
	whole := v.Str(1)
	v.Clip(2)
	if v.Len() != 2 || len(v.Bytes) != 5 || cap(v.Bytes) > 8 || v.Str(0) != "ab" || v.Str(1) != "cde" || whole != "cde" {
		t.Fatalf("clipped: len %d, bytes %q (cap %d), %q %q", v.Len(), v.Bytes, cap(v.Bytes), v.Str(0), v.Str(1))
	}
}

// SetFrom is the join kernel's positional take: each cell of src lands
// at its own destination row, typed payloads copied directly when the
// kinds agree and through Set when they do not.
func TestVecSetFrom(t *testing.T) {
	cases := []struct {
		src, dst types.Type
		cells    []rows.Slot
		want     []rows.Slot // nil: the cells as written
	}{
		{types.Option(types.I64), types.Option(types.I64), []rows.Slot{rows.I64(3), rows.Null(), rows.I64(-9)}, nil},
		{types.Option(types.F64), types.Option(types.F64), []rows.Slot{rows.F64(0.25), rows.Null(), rows.F64(-1)}, nil},
		{types.Option(types.Bool), types.Option(types.Bool), []rows.Slot{rows.Bool(true), rows.Null(), rows.Bool(false)}, nil},
		{types.Option(types.Str), types.Option(types.Str), []rows.Slot{rows.Str("ab"), rows.Null(), rows.Str("")}, nil},
		{types.Any, types.Any, []rows.Slot{rows.List([]rows.Slot{rows.I64(1)}), rows.Null(), rows.Str("s")}, nil},
		// Kind mismatch: the slot path stores the cell in the escape column.
		{types.Option(types.I64), types.Any, []rows.Slot{rows.I64(2), rows.Null(), rows.I64(500)}, nil},
		{types.Str, types.Any, []rows.Slot{rows.Str("x"), rows.Str("yz")}, nil},
		// A KindNull source reads null everywhere; a KindNull target keeps no payload.
		{types.Null, types.Option(types.Str), []rows.Slot{rows.Null(), rows.Null()}, nil},
		{types.Option(types.I64), types.Null, []rows.Slot{rows.I64(4), rows.Null()}, []rows.Slot{rows.Null(), rows.Null()}},
	}
	for _, tc := range cases {
		src := NewVec(tc.src)
		for _, s := range tc.cells {
			src.AppendSlot(s)
		}
		want := tc.want
		if want == nil {
			want = tc.cells
		}
		// Scatter source row i to destination row 2i+1 of a grown vector.
		dst := NewVec(tc.dst)
		dst.Grow(2*len(tc.cells) + 1)
		for i := range tc.cells {
			dst.SetFrom(src, i, 2*i+1)
		}
		for i, w := range want {
			if got := dst.Slot(2*i + 1); !rows.Equal(got, w) || got.Tag != w.Tag {
				t.Fatalf("%s→%s row %d = %+v, want %+v", tc.src, tc.dst, i, got, w)
			}
		}
	}
}

// Ascending string writes after Grow append in row order to one buffer,
// read back through a sealed view, and survive the vector's reuse.
func TestVecSetFromStringsAscending(t *testing.T) {
	src := NewVec(types.Option(types.Str))
	words := []string{"alpha", "", "gamma", "delta-delta"}
	for _, w := range words {
		src.AppendStr(w)
	}
	src.AppendNull()
	src.Seal()

	dst := NewVec(types.Option(types.Str))
	dst.Grow(8)
	at := []int{0, 2, 3, 6, 7}
	for i, j := range at {
		dst.SetFrom(src, i, j)
	}
	for i, w := range words {
		if dst.IsNull(at[i]) || dst.Str(at[i]) != w {
			t.Fatalf("row %d = %q, want %q", at[i], dst.Str(at[i]), w)
		}
	}
	if !dst.IsNull(7) || string(dst.Bytes) != "alphagammadelta-delta" {
		t.Fatalf("null %v, bytes %q", dst.IsNull(7), dst.Bytes)
	}
	kept := dst.Str(6)
	dst.Reset()
	dst.Grow(1)
	dst.SetFrom(src, 0, 0)
	if kept != "delta-delta" || dst.Str(0) != "alpha" || dst.IsNull(0) {
		t.Fatalf("after reuse: kept %q, row 0 %q", kept, dst.Str(0))
	}
}

// AppendSel reserves string bytes for the non-null cells only: a null
// written densely (SetNull) keeps whatever length its row held before.
func TestVecAppendSelReservesLiveBytes(t *testing.T) {
	src := NewVec(types.Option(types.Str))
	src.Grow(3)
	src.SetStr(0, strings.Repeat("x", 1000))
	src.SetStr(1, "ab")
	src.Reset()
	src.Grow(3)
	src.SetNull(0)
	src.SetStr(1, "cd")
	src.SetNull(2)
	v := NewVec(types.Option(types.Str))
	v.AppendSel(src, []int32{0, 1, 2})
	if cap(v.Bytes) > 8 || v.Str(1) != "cd" || !v.IsNull(0) || !v.IsNull(2) {
		t.Fatalf("bytes %q (cap %d), nulls %v %v", v.Bytes, cap(v.Bytes), v.IsNull(0), v.IsNull(2))
	}
}

// A dense write of a slot the vector's kind does not cover widens it to
// an escape vector holding every cell as written; Retype restores the
// kind for the next batch.
func TestVecSetWidens(t *testing.T) {
	v := NewVec(types.F64)
	v.Grow(3)
	v.Set(0, rows.F64(2.5))
	v.Set(1, rows.I64(3))
	v.Set(2, rows.Null())
	if v.Kind != types.KindAny {
		t.Fatalf("kind %v after an int write, want the escape kind", v.Kind)
	}
	for i, w := range []rows.Slot{rows.F64(2.5), rows.I64(3), rows.Null()} {
		if got := v.Slot(i); got.Tag != w.Tag || !rows.Equal(got, w) {
			t.Fatalf("row %d = %+v, want %+v", i, got, w)
		}
	}
	v.Retype(types.F64)
	if v.Grow(1); v.Kind != types.KindF64 || len(v.F) != 1 {
		t.Fatalf("Retype left kind %v, %d floats", v.Kind, len(v.F))
	}
}
