package lint

import "testing"

func TestHotAllocFlagsSeededViolations(t *testing.T) {
	src := `package core

//tuplex:kernel
func badKernel(rows [][]byte, sel []int32) [][]string {
	var out [][]string
	for _, r := range sel {
		cells := make([]string, 4) // per-row make: flagged
		_ = cells
		tmp := append([]string(nil), string(rows[r])) // append to fresh slice: flagged
		out = append(out, tmp)                        // self-append: allowed
	}
	for i := 0; i < len(rows); i++ {
		sink(append(sel, int32(i))) // append result passed on: flagged
	}
	return out
}

func sink(v []int32) {}
`
	diags := analyze(t, "internal/core", src, HotAlloc)
	wantDiag(t, diags, "hotalloc", "make inside kernel loop")
	wantDiag(t, diags, "hotalloc", "append to a different slice")
	wantDiag(t, diags, "hotalloc", "append result not stored back")
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %v", len(diags), diags)
	}
}

func TestHotAllocFlagsBoxedSlotConstruction(t *testing.T) {
	src := `package core

type slotRow []int

//tuplex:kernel
func boxyKernel(vals []int64, sel []int32, sch *schema) {
	for _, r := range sel {
		s := rows.Slot{}            // boxed-Slot composite: flagged
		_ = s
		row, ok := unboxConforming(nil, sch, nil) // rebox call: flagged
		_, _ = row, ok
		_ = cs.unboxConforming(r) // selector form: flagged
		_ = vals[r]
	}
	pad := rows.Slot{} // outside the loop: allowed
	_ = pad
}

type schema struct{}
`
	diags := analyze(t, "internal/core", src, HotAlloc)
	wantDiag(t, diags, "hotalloc", "rows.Slot composite inside kernel loop")
	wantDiag(t, diags, "hotalloc", "unboxConforming inside kernel loop")
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %v", len(diags), diags)
	}
}

func TestHotAllocAllowsAmortizedAndHoisted(t *testing.T) {
	src := `package core

type vec struct{ b []byte }

//tuplex:kernel
func goodKernel(v *vec, rows [][]byte, sel []int32) []int {
	out := make([]int, 0, len(sel)) // per-batch make outside the loop
	for _, r := range sel {
		v.b = append(v.b, rows[r]...) // self-append through a field
		out = append(out, int(r))     // self-append local
	}
	return out
}

// Unmarked functions are never checked, whatever they allocate.
func notAKernel(sel []int32) {
	for range sel {
		_ = make([]byte, 64)
	}
}
`
	diags := analyze(t, "internal/core", src, HotAlloc)
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}
}

func TestHotAllocSkipsNestedClosures(t *testing.T) {
	src := `package core

//tuplex:kernel
func kernelWithSetupClosure(sel []int32) {
	build := func(n int) []byte { return make([]byte, n) }
	for _, r := range sel {
		_ = r
	}
	_ = build(4)
}
`
	diags := analyze(t, "internal/core", src, HotAlloc)
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}
}

// Vector expression kernels (codegen/vec.go) are generic functions over
// payload slices that write through a cursor into a preallocated
// selection buffer; the directive must cover that shape — and catch the
// tempting per-row growth of the output selection into a fresh slice.
func TestHotAllocVectorKernelShapes(t *testing.T) {
	good := `package codegen

type vnum interface{ int64 | float64 }

//tuplex:kernel
func vecCmpVC[T vnum](a []T, c T, sel, out []int32) int {
	k := 0
	for _, r := range sel {
		out[k] = r
		if a[r] < c {
			k++
		}
	}
	return k
}

//tuplex:kernel
func (st *state) finish(sel, res, out []int32) []int32 {
	for _, r := range res {
		if !st.mark[r] {
			out = append(out, r) // amortized self-append into the caller's buffer
		}
	}
	for _, r := range sel {
		if st.mark[r] {
			st.bail = append(st.bail, r)
		}
	}
	return out
}

type state struct {
	mark []bool
	bail []int32
}
`
	if diags := analyze(t, "internal/codegen", good, HotAlloc); len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}

	bad := `package codegen

type vnum interface{ int64 | float64 }

//tuplex:kernel
func vecCmpLeaky[T vnum](a []T, c T, sel []int32) [][]int32 {
	var runs [][]int32
	for _, r := range sel {
		hit := append([]int32(nil), r) // fresh selection per row: flagged
		tmp := make([]T, 1)            // per-row register: flagged
		tmp[0] = a[r]
		if tmp[0] < c {
			runs = append(runs, hit)
		}
	}
	return runs
}
`
	diags := analyze(t, "internal/codegen", bad, HotAlloc)
	wantDiag(t, diags, "hotalloc", "append to a different slice")
	wantDiag(t, diags, "hotalloc", "make inside kernel loop")
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %d, want 2: %v", len(diags), diags)
	}
}

// String kernels (codegen/vecstr.go) read cells as spans aliasing column
// bytes, call a scalar helper per row, and let producers append to the
// batch arena through the state; none of that allocates per row. What
// does — converting a cell's bytes to a string, growing a fresh buffer per
// row — must fail tuplex-vet.
func TestHotAllocStringKernelShapes(t *testing.T) {
	good := `package codegen

import "unsafe"

type strArg struct {
	vec       []string
	off, slen []uint32
	bytes     []byte
}

func (a *strArg) at(r int32) string {
	if a.vec != nil {
		return a.vec[r]
	}
	o, n := int(a.off[r]), int(a.slen[r])
	if n == 0 || o+n > len(a.bytes) {
		return ""
	}
	return unsafe.String(&a.bytes[o], n) // aliases, does not copy
}

type state struct {
	arena []byte
	mark  []bool
}

//tuplex:kernel
func vecStrCaseFold(out []string, s strArg, sel []int32, st *state) {
	for _, r := range sel {
		start := len(st.arena)
		st.arena = appendFold(st.arena, s.at(r)) // producer appends to the batch arena
		out[r] = unsafe.String(&st.arena[start], len(st.arena)-start)
	}
}

//tuplex:kernel
func vecStrConcat(out []string, a, b strArg, sel []int32, st *state) {
	for _, r := range sel {
		start := len(st.arena)
		st.arena = append(st.arena, a.at(r)...) // amortized self-append through a field
		st.arena = append(st.arena, b.at(r)...)
		out[r] = unsafe.String(&st.arena[start], len(st.arena)-start)
	}
}

//tuplex:kernel
func vecStrSlice(out []string, s strArg, lo []int64, sel []int32) {
	for _, r := range sel {
		v := s.at(r)
		out[r] = v[min(int(lo[r]), len(v)):] // a re-span, zero-copy
	}
}

func appendFold(dst []byte, s string) []byte { return append(dst, s...) }
`
	if diags := analyze(t, "internal/codegen", good, HotAlloc); len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none", diags)
	}

	bad := `package codegen

type col struct {
	off, slen []uint32
	bytes     []byte
}

//tuplex:kernel
func vecStrUpperLeaky(out []string, c *col, sel []int32) {
	for _, r := range sel {
		cell := c.bytes[c.off[r] : c.off[r]+c.slen[r]]
		out[r] = string(cell) // one heap string per row: flagged
	}
}

//tuplex:kernel
func vecStrConcatLeaky(out []string, a, b []string, sel []int32) {
	for _, r := range sel {
		buf := append([]byte(nil), a[r]...) // fresh buffer per row: flagged
		buf = append(buf, b[r]...)          // self-append: allowed
		out[r] = string(buf)                // and the conversion: flagged
	}
}
`
	diags := analyze(t, "internal/codegen", bad, HotAlloc)
	wantDiag(t, diags, "hotalloc", "string conversion stored inside kernel loop")
	wantDiag(t, diags, "hotalloc", "append to a different slice")
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %v", len(diags), diags)
	}
}
