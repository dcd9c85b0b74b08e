// Package colvec implements the columnar batch representation of the
// normal-case data plane: Arrow-style column vectors with typed Go
// slices per column, null bitmaps, and offset+bytes string storage.
//
// A Vec holds one column of a batch with *dense absolute indexing*:
// every vector in a batch has the batch's full row count, and a
// selection vector (a []int32 of surviving row indices) tracks which
// rows are still live. Filters shrink the selection instead of copying
// columns; derived columns (withColumn/map kernels) are written only at
// selected positions, leaving holes that are never read. This is the Go
// analog of Tuplex's flat-tuple normal-case memory layout, batched: the
// CSV chunk parser appends one cell per column per row with zero
// per-cell boxing, and batch UDF kernels loop over vectors a chunk at a
// time.
//
// String cells live as offset+length pairs into a shared Bytes buffer.
// Reading a cell as a Go string goes through Seal(), which takes an
// immutable aliasing view of the buffer (no copy); individual cells are
// then substrings of that view. Rendering a cell to CSV reads the raw
// bytes and never seals.
package colvec

import (
	"math/bits"
	"slices"
	"unsafe"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// Bitmap is a dense bit set marking null rows of one vector.
type Bitmap []uint64

// Set marks bit i (growing the bitmap as needed).
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// Get reports bit i.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

// Reset clears all bits, keeping capacity.
func (b *Bitmap) Reset() {
	for i := range *b {
		(*b)[i] = 0
	}
}

// truncate clears bits at positions >= n.
func (b Bitmap) truncate(n int) {
	w := n >> 6
	if w >= len(b) {
		return
	}
	b[w] &= (1 << (uint(n) & 63)) - 1
	for i := w + 1; i < len(b); i++ {
		b[i] = 0
	}
}

// Vec is one column vector. Exactly one payload family is in use,
// selected by Kind (the unwrapped value kind of the column):
//
//   - KindBool → B
//   - KindI64  → I
//   - KindF64  → F
//   - KindStr  → Off/SLen into Bytes
//   - KindNull → no payload (all-null column)
//   - anything else → Slots (boxed escape hatch: lists, tuples, dicts)
//
// Nulls, when non-nil bits are set, marks rows whose payload slot is
// meaningless (Option columns). All payload slices are indexed by
// absolute batch row position.
type Vec struct {
	Kind types.Kind
	// Nullable records that the column's static type admits nulls; the
	// bitmap is consulted only when Nullable is true.
	Nullable bool
	Nulls    Bitmap

	n int // logical length

	B     []bool
	I     []int64
	F     []float64
	Off   []uint32
	SLen  []uint32
	Bytes []byte
	Slots []rows.Slot

	// sealed is the immutable string view of Bytes[:sealLen]; cells read
	// as Go strings substring it. The view aliases Bytes without
	// copying: appends past sealLen never rewrite sealed bytes, and
	// Reset donates an aliased buffer to its strings (the vector takes a
	// fresh one) instead of rewriting it.
	sealed  string
	sealLen int
	donated bool
}

// NewVec returns a vector for the given column type (Option unwraps to
// its element with Nullable set) with capacity hints applied lazily by
// append growth.
func NewVec(t types.Type) *Vec {
	v := &Vec{}
	v.Retype(t)
	return v
}

// PayloadKind is the Kind of a vector holding column type t (an Option
// unwraps to its element), and whether such a vector is nullable.
func PayloadKind(t types.Type) (k types.Kind, nullable bool) {
	k = t.Kind()
	if k == types.KindOption {
		nullable = true
		k = t.Elem().Kind()
	}
	switch k {
	case types.KindBool, types.KindI64, types.KindF64, types.KindStr, types.KindNull:
	default:
		k = types.KindAny // boxed escape hatch
	}
	return k, nullable
}

// Retype resets the vector for a (possibly different) column type.
func (v *Vec) Retype(t types.Type) {
	v.Kind, v.Nullable = PayloadKind(t)
	v.Reset()
}

// Len reports the logical row count.
func (v *Vec) Len() int { return v.n }

// Reset empties the vector, keeping capacity for reuse across batches.
func (v *Vec) Reset() {
	v.n = 0
	v.B = v.B[:0]
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.Off = v.Off[:0]
	v.SLen = v.SLen[:0]
	if v.donated {
		// Sealed strings from the previous batch alias this buffer;
		// rewriting it from offset 0 would corrupt them. Leave it to
		// them and start fresh at the same capacity.
		v.Bytes = make([]byte, 0, cap(v.Bytes))
		v.donated = false
	} else {
		v.Bytes = v.Bytes[:0]
	}
	v.Slots = v.Slots[:0]
	v.Nulls.Reset()
	v.sealed = ""
	v.sealLen = 0
}

// Reserve gives the vector room for n rows of payload (not string
// bytes), so n appends to a fresh vector allocate once instead of at
// each of append's growth steps.
func (v *Vec) Reserve(n int) {
	switch v.Kind {
	case types.KindBool:
		v.B = reserve(v.B, n)
	case types.KindI64:
		v.I = reserve(v.I, n)
	case types.KindF64:
		v.F = reserve(v.F, n)
	case types.KindStr:
		v.Off = reserve(v.Off, n)
		v.SLen = reserve(v.SLen, n)
	case types.KindNull:
	default:
		v.Slots = reserve(v.Slots, n)
	}
}

func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow(s, n-len(s))
	}
	return s
}

// Grow extends the vector's payload storage to length n (dense derived
// columns write at absolute positions; holes stay zero and unread).
func (v *Vec) Grow(n int) {
	v.n = n
	switch v.Kind {
	case types.KindBool:
		v.B = growTo(v.B, n)
	case types.KindI64:
		v.I = growTo(v.I, n)
	case types.KindF64:
		v.F = growTo(v.F, n)
	case types.KindStr:
		v.Off = growTo(v.Off, n)
		v.SLen = growTo(v.SLen, n)
	case types.KindNull:
	default:
		v.Slots = growTo(v.Slots, n)
	}
}

func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s[:len(s)])
		return ns
	}
	s = s[:n]
	return s
}

// Truncate rolls the vector back to n rows (parser rollback after a
// rejected record).
func (v *Vec) Truncate(n int) {
	if n >= v.n {
		return
	}
	v.n = n
	switch v.Kind {
	case types.KindBool:
		v.B = v.B[:n]
	case types.KindI64:
		v.I = v.I[:n]
	case types.KindF64:
		v.F = v.F[:n]
	case types.KindStr:
		if len(v.Off) > n {
			v.Bytes = v.Bytes[:v.Off[n]]
		}
		v.Off = v.Off[:n]
		v.SLen = v.SLen[:n]
	case types.KindNull:
	default:
		v.Slots = v.Slots[:n]
	}
	v.Nulls.truncate(n)
}

// Clip truncates an appended vector to its first n rows and copies the
// string bytes they use into an exact-size buffer, so strings read from
// it afterwards no longer keep the dropped rows' bytes alive.
func (v *Vec) Clip(n int) {
	v.Truncate(n)
	v.Bytes = slices.Clone(v.Bytes)
	v.sealed, v.sealLen, v.donated = "", 0, false
}

// ---- Append building (source parse: rows arrive in order) ----

// AppendNull appends a null cell (payload slot zeroed).
func (v *Vec) AppendNull() {
	v.Nulls.Set(v.n)
	v.Nullable = true
	switch v.Kind {
	case types.KindBool:
		v.B = append(v.B, false)
	case types.KindI64:
		v.I = append(v.I, 0)
	case types.KindF64:
		v.F = append(v.F, 0)
	case types.KindStr:
		v.Off = append(v.Off, uint32(len(v.Bytes)))
		v.SLen = append(v.SLen, 0)
	case types.KindNull:
	default:
		v.Slots = append(v.Slots, rows.Null())
	}
	v.n++
}

// AppendBool appends a bool cell.
func (v *Vec) AppendBool(b bool) {
	v.B = append(v.B, b)
	v.n++
}

// AppendI64 appends an integer cell.
func (v *Vec) AppendI64(x int64) {
	v.I = append(v.I, x)
	v.n++
}

// AppendF64 appends a float cell.
func (v *Vec) AppendF64(f float64) {
	v.F = append(v.F, f)
	v.n++
}

// AppendStrBytes appends a string cell by copying raw bytes into the
// shared buffer — the zero-boxing parse path.
func (v *Vec) AppendStrBytes(b []byte) {
	v.Off = append(v.Off, uint32(len(v.Bytes)))
	v.SLen = append(v.SLen, uint32(len(b)))
	v.Bytes = append(v.Bytes, b...)
	v.n++
}

// AppendStr appends a string cell from a Go string.
func (v *Vec) AppendStr(s string) {
	v.Off = append(v.Off, uint32(len(v.Bytes)))
	v.SLen = append(v.SLen, uint32(len(s)))
	v.Bytes = append(v.Bytes, s...)
	v.n++
}

// AppendUnit appends a cell to a no-payload (all-null kind) vector.
func (v *Vec) AppendUnit() { v.n++ }

// AppendSlot appends an arbitrary slot cell, dispatching on the vector
// kind (the slot-source ingest and join-gather paths; the engine only
// routes type-conforming slots here, everything else goes through the
// escape column).
func (v *Vec) AppendSlot(s rows.Slot) {
	if s.Tag == types.KindNull {
		v.AppendNull()
		return
	}
	switch v.Kind {
	case types.KindBool:
		v.AppendBool(s.B)
	case types.KindI64:
		v.AppendI64(s.I)
	case types.KindF64:
		v.AppendF64(s.F)
	case types.KindStr:
		v.AppendStr(s.S)
	case types.KindNull:
		v.AppendUnit()
	default:
		v.Slots = append(v.Slots, s)
		v.n++
	}
}

// AppendCell is AppendSlot for cells whose tags the vector's kind may
// not cover (the row path's output): a non-null slot of another kind
// first turns the vector into an escape vector, so every cell reads
// back as it was written.
func (v *Vec) AppendCell(s rows.Slot) {
	v.widenFor(s)
	v.AppendSlot(s)
}

// widenFor turns v into an escape vector holding its current cells when
// s is a non-null slot its kind does not cover.
func (v *Vec) widenFor(s rows.Slot) {
	if s.Tag == types.KindNull || s.Tag == v.Kind || v.Kind == types.KindAny {
		return
	}
	slots := make([]rows.Slot, v.n, max(v.n, 16))
	for i := range slots {
		slots[i] = v.Slot(i)
	}
	*v = Vec{Kind: types.KindAny, Nullable: v.Nullable, Nulls: v.Nulls, n: v.n, Slots: slots}
}

// AppendSel appends src's cells at the rows in sel, sizing the payload
// (string bytes included) for all of them first, so the appends never
// reallocate. A src of another kind appends cell by cell (AppendCell).
func (v *Vec) AppendSel(src *Vec, sel []int32) {
	if v.Kind != src.Kind {
		for _, r := range sel {
			v.AppendCell(src.Slot(int(r)))
		}
		return
	}
	if v.Kind == types.KindStr {
		bytes := 0
		for _, r := range sel {
			if !src.IsNull(int(r)) { // a dense null keeps a stale length
				bytes += int(src.SLen[r])
			}
		}
		v.Bytes = slices.Grow(v.Bytes, bytes)
	}
	at := v.n
	v.Grow(at + len(sel))
	for i, r := range sel {
		v.SetFrom(src, int(r), at+i)
	}
}

// ---- Dense absolute writes (derived kernel outputs) ----

// SetNull marks row i null.
func (v *Vec) SetNull(i int) {
	v.Nullable = true
	v.Nulls.Set(i)
}

// SetBool writes a bool at row i.
func (v *Vec) SetBool(i int, b bool) { v.B[i] = b }

// SetI64 writes an integer at row i.
func (v *Vec) SetI64(i int, x int64) { v.I[i] = x }

// SetF64 writes a float at row i.
func (v *Vec) SetF64(i int, f float64) { v.F[i] = f }

// SetStr writes a string at row i. Bytes append in write order; rows
// must be written in ascending order within a batch (kernels iterate
// the selection vector, which is ascending).
func (v *Vec) SetStr(i int, s string) {
	v.Off[i] = uint32(len(v.Bytes))
	v.SLen[i] = uint32(len(s))
	v.Bytes = append(v.Bytes, s...)
}

// SetSlot writes an escape-hatch boxed slot at row i.
func (v *Vec) SetSlot(i int, s rows.Slot) { v.Slots[i] = s }

// SetFrom writes cell i of src at row j — the join kernel's positional
// take and AppendSel's copy. Same-kind cells copy typed payloads
// directly (string bytes move buffer-to-buffer, in ascending row order
// as with SetStr); a null or a kind mismatch goes through Set.
func (v *Vec) SetFrom(src *Vec, i, j int) {
	if v.Kind != src.Kind || src.IsNull(i) {
		v.Set(j, src.Slot(i))
		return
	}
	switch v.Kind {
	case types.KindBool:
		v.B[j] = src.B[i]
	case types.KindI64:
		v.I[j] = src.I[i]
	case types.KindF64:
		v.F[j] = src.F[i]
	case types.KindStr:
		v.Off[j] = uint32(len(v.Bytes))
		v.SLen[j] = src.SLen[i]
		v.Bytes = append(v.Bytes, src.RawStr(i)...)
	default:
		v.Slots[j] = src.Slots[i]
	}
}

// ---- Reading ----

// IsNull reports whether row i is null.
func (v *Vec) IsNull(i int) bool {
	return v.Kind == types.KindNull || (v.Nullable && v.Nulls.Get(i))
}

// AllValid reports that no row of the vector is null, scanning the
// bitmap a word at a time. Batch kernels consult it once per batch to
// dispatch to inner-loop variants with the per-cell null check elided.
func (v *Vec) AllValid() bool {
	if v.Kind == types.KindNull {
		return false
	}
	if !v.Nullable {
		return true
	}
	words := (v.n + 63) >> 6
	if words > len(v.Nulls) {
		words = len(v.Nulls)
	}
	for _, w := range v.Nulls[:words] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Seal refreshes the immutable string view of the bytes buffer. The
// view aliases the buffer — no copy, no allocation. Safe because the
// buffer is append-only within a batch (later appends either extend
// past sealLen or relocate the array, leaving sealed bytes untouched),
// and Reset hands an aliased buffer over to its strings for good.
func (v *Vec) Seal() {
	if v.sealLen != len(v.Bytes) {
		v.sealed = unsafe.String(&v.Bytes[0], len(v.Bytes))
		v.sealLen = len(v.Bytes)
		v.donated = true
	}
}

// Str returns row i as a Go string (substring of the sealed buffer — no
// per-cell allocation).
func (v *Vec) Str(i int) string {
	v.Seal()
	off := v.Off[i]
	return v.sealed[off : off+v.SLen[i]]
}

// RawStr returns row i's string bytes without sealing (CSV rendering).
func (v *Vec) RawStr(i int) []byte {
	off := v.Off[i]
	return v.Bytes[off : off+v.SLen[i]]
}

// Slot returns row i as an unboxed slot (strings via the sealed view).
func (v *Vec) Slot(i int) rows.Slot {
	if v.IsNull(i) {
		return rows.Null()
	}
	switch v.Kind {
	case types.KindBool:
		return rows.Bool(v.B[i])
	case types.KindI64:
		return rows.I64(v.I[i])
	case types.KindF64:
		return rows.F64(v.F[i])
	case types.KindStr:
		return rows.Str(v.Str(i))
	case types.KindNull:
		return rows.Null()
	default:
		return v.Slots[i]
	}
}

// Box boxes row i through b into the value rows.AnyValue gives the
// cell, reading the typed payload directly. A string shares the
// vector's bytes (see Seal), so the vector must not be reused while the
// boxed value lives.
func (v *Vec) Box(b *rows.Boxer, i int) any {
	if v.IsNull(i) {
		return nil
	}
	switch v.Kind {
	case types.KindBool:
		return v.B[i]
	case types.KindI64:
		return b.I64(v.I[i])
	case types.KindF64:
		return b.F64(v.F[i])
	case types.KindStr:
		return b.Str(v.Str(i))
	default:
		return b.Box(v.Slots[i])
	}
}

// SlabCells counts the rows.Boxer slab cells boxing rows [0, n) takes:
// integers outside 0..255, floats and strings (rows.Boxer.Reserve). A
// null integer cell counts when its payload slot does, so the count is
// exact for appended vectors and an upper bound for dense ones.
func (v *Vec) SlabCells(n int) (ints, floats, strs int) {
	switch v.Kind {
	case types.KindBool, types.KindNull:
	case types.KindI64:
		for _, x := range v.I[:n] {
			if rows.SlabInt(x) {
				ints++
			}
		}
	case types.KindF64:
		floats = n - v.nulls(n)
	case types.KindStr:
		strs = n - v.nulls(n)
	default:
		for i := range n {
			switch s := &v.Slots[i]; {
			case v.IsNull(i):
			case s.Tag == types.KindI64 && rows.SlabInt(s.I):
				ints++
			case s.Tag == types.KindF64:
				floats++
			case s.Tag == types.KindStr:
				strs++
			}
		}
	}
	return ints, floats, strs
}

// nulls counts the null rows among [0, n) of a payload-carrying vector.
func (v *Vec) nulls(n int) int {
	if !v.Nullable {
		return 0
	}
	c, words := 0, min(n>>6, len(v.Nulls))
	for _, w := range v.Nulls[:words] {
		c += bits.OnesCount64(w)
	}
	if rem := n & 63; rem != 0 && words < len(v.Nulls) {
		c += bits.OnesCount64(v.Nulls[words] & (1<<rem - 1))
	}
	return c
}

// Set writes an arbitrary slot at row i, dispatching on the vector
// kind. A null slot sets the bitmap, and a KindNull vector keeps no
// payload; a slot of a kind the payload does not cover (a row closure's
// Python-typed result, max(3, 2.5) in a float column) first turns the
// vector into an escape vector, as AppendCell does, so the cell reads
// back as it was written. Callers that reuse the vector across batches
// restore its kind with Retype.
func (v *Vec) Set(i int, s rows.Slot) {
	switch {
	case v.Kind == types.KindNull:
		return
	case s.Tag == types.KindNull:
		v.SetNull(i)
		return
	}
	v.widenFor(s)
	switch v.Kind {
	case types.KindBool:
		v.SetBool(i, s.B)
	case types.KindI64:
		v.SetI64(i, s.I)
	case types.KindF64:
		v.SetF64(i, s.F)
	case types.KindStr:
		v.SetStr(i, s.S)
	default:
		v.SetSlot(i, s)
	}
}

// Batch is one chunk's worth of rows in columnar form.
type Batch struct {
	Cols []*Vec
	// N is the batch row count (every vector's dense length).
	N int
}

// Slot returns cell (row, col) as an unboxed slot.
func (b *Batch) Slot(row, col int) rows.Slot { return b.Cols[col].Slot(row) }

// ReadRow gathers row i into buf as slots. buf must have length >=
// len(b.Cols).
func (b *Batch) ReadRow(i int, buf rows.Row) rows.Row {
	out := buf[:len(b.Cols)]
	for c, v := range b.Cols {
		out[c] = v.Slot(i)
	}
	return out
}

// GatherRows materializes the selected rows as []rows.Row with a single
// bulk backing allocation (the columnar collect/materialize terminal).
// Strings are substrings of each column's sealed buffer.
func (b *Batch) GatherRows(sel []int32) []rows.Row {
	nc := len(b.Cols)
	backing := make([]rows.Slot, len(sel)*nc)
	out := make([]rows.Row, len(sel))
	for oi, ri := range sel {
		row := backing[oi*nc : (oi+1)*nc : (oi+1)*nc]
		for c, v := range b.Cols {
			row[c] = v.Slot(int(ri))
		}
		out[oi] = row
	}
	return out
}

// BoxValue boxes cell (row, col) for the boxed paths.
func (b *Batch) BoxValue(row, col int) pyvalue.Value {
	return b.Cols[col].Slot(row).Value()
}
