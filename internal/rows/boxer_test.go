package rows

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/gotuplex/tuplex/internal/pyvalue"
)

func TestBoxerScalarsMatchPlainBoxing(t *testing.T) {
	slots := []Slot{
		Null(), Bool(true), Bool(false),
		I64(0), I64(7), I64(255), I64(256), I64(-1), I64(1 << 62),
		F64(0), F64(2.5), F64(-1e300),
		Str(""), Str("hello"), Str("quoted,\"cell\""),
		List([]Slot{I64(1), Str("x")}),
		Tuple([]Slot{F64(0.5), Null()}),
		Obj(pyvalue.NewDict()),
	}
	var b Boxer
	for _, s := range slots {
		got := b.Box(s)
		want := AnyValue(s.Value())
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("Box(%v) = %#v, want %#v", s, got, want)
		}
	}
}

// boxRow boxes one row into cells carved off b's []any slab.
func boxRow(b *Boxer, r Row) []any {
	out := b.Cells(len(r))
	for i, s := range r {
		out[i] = b.Box(s)
	}
	return out
}

// Slab growth must not invalidate previously issued interface values:
// they hold interior pointers into superseded arrays, which stay alive.
func TestBoxerSlabGrowthKeepsIssuedValues(t *testing.T) {
	var b Boxer
	const n = 50_000
	out := make([][]any, n)
	for i := range n {
		out[i] = boxRow(&b, Row{I64(int64(i) + 1000), F64(float64(i) * 0.5), Str(fmt.Sprintf("s%d", i))})
	}
	runtime.GC()
	runtime.GC()
	for i, r := range out {
		if r[0] != int64(i)+1000 || r[1] != float64(i)*0.5 || r[2] != fmt.Sprintf("s%d", i) {
			t.Fatalf("row %d = %v after slab growth", i, r)
		}
	}
}

// Reserved slabs never reallocate: boxing exactly the reserved cells
// keeps every slab's first cell where it was, and every issued value
// reads back after collections.
func TestBoxerReserveNeverReallocates(t *testing.T) {
	if !fastEface {
		t.Skip("runtime interface layout differs; slab path disabled")
	}
	const n = 10_000
	var b Boxer
	b.Reserve(3*n, n, n, n)
	cells := b.Cells(3 * n)
	first := func() [4]uintptr {
		return [4]uintptr{
			uintptr(unsafe.Pointer(unsafe.SliceData(b.anys))),
			uintptr(unsafe.Pointer(unsafe.SliceData(b.i64))),
			uintptr(unsafe.Pointer(unsafe.SliceData(b.f64))),
			uintptr(unsafe.Pointer(unsafe.SliceData(b.str))),
		}
	}
	before := first()
	for i := range n {
		cells[3*i] = b.I64(int64(i) + 1000)
		cells[3*i+1] = b.F64(float64(i) * 0.25)
		cells[3*i+2] = b.Str(fmt.Sprintf("s%d", i))
	}
	if after := first(); after != before {
		t.Fatalf("slab moved: first cells %x, then %x", before, after)
	}
	if len(b.i64) != n || cap(b.i64) < n || len(b.anys) != 3*n {
		t.Fatalf("slab lengths: i64 %d, anys %d", len(b.i64), len(b.anys))
	}
	runtime.GC()
	runtime.GC()
	for i := range n {
		if cells[3*i] != int64(i)+1000 || cells[3*i+1] != float64(i)*0.25 || cells[3*i+2] != fmt.Sprintf("s%d", i) {
			t.Fatalf("row %d = %v", i, cells[3*i:3*i+3])
		}
	}
}

func TestBoxerAllocsAmortized(t *testing.T) {
	if !fastEface {
		t.Skip("runtime interface layout differs; slab path disabled")
	}
	const rowsN = 1000
	avg := testing.AllocsPerRun(10, func() {
		var b Boxer
		b.Reserve(3*rowsN, rowsN, rowsN, rowsN)
		for i := range rowsN {
			boxRow(&b, Row{I64(int64(i) + 500), F64(float64(i)), Str("abc")})
		}
	})
	// Plain boxing would cost ~3 allocations per row (3000 total); a
	// reserved boxer allocates its four slabs and nothing else.
	if avg > 4 {
		t.Fatalf("allocs per 1000 rows = %.0f, want the 4 reserved slabs only", avg)
	}
}

func TestAnyValueComplex(t *testing.T) {
	if AnyValue(nil) != nil || AnyValue(pyvalue.None{}) != nil {
		t.Fatalf("AnyValue(nil/None) not nil")
	}
	d := pyvalue.NewDict()
	d.Set("k", pyvalue.Int(3))
	got := AnyValue(d)
	m, ok := got.(map[string]any)
	if !ok || m["k"] != int64(3) {
		t.Fatalf("AnyValue(dict) = %#v", got)
	}
	l := &pyvalue.List{Items: []pyvalue.Value{pyvalue.Str("a"), pyvalue.None{}}}
	lv, ok := AnyValue(l).([]any)
	if !ok || lv[0] != "a" || lv[1] != nil {
		t.Fatalf("AnyValue(list) = %#v", AnyValue(l))
	}
}
