package dataflow

import (
	"math"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// Nullness is the nullability component of the lattice.
type Nullness uint8

const (
	// NullUnknown is the lattice top: the value may or may not be None.
	NullUnknown Nullness = iota
	// NullNever proves the value is not None on the normal-case path.
	NullNever
	// NullAlways proves the value is None on the normal-case path.
	NullAlways
)

// Fact is one element of the product lattice: constancy × nullability ×
// integer interval. The zero Fact is top (nothing known). deps is the
// bitmask of row columns whose *sampled value statistics* the fact rests
// on; a non-zero deps means the fact only holds for rows that satisfy
// the sampled constraint, so any optimization consuming it must emit a
// runtime guard for those columns. Facts derived from the normal-case
// types alone (which the row classifier enforces) are dep-free.
type Fact struct {
	// Const is the value this expression always evaluates to, when
	// known (scalar kinds plus None only).
	Const pyvalue.Value
	// Lo/Hi bound integer values when HasLo/HasHi are set.
	Lo, Hi int64

	deps uint64

	// The one-byte fields go last: a Fact packs into 48 bytes, and a
	// Result holds one per expression.

	// Null is the nullability component.
	Null         Nullness
	HasLo, HasHi bool

	// notZero records a numeric value proven ≠ 0 without interval bounds
	// (e.g. a truthiness check on an unbounded int). Any sampled-column
	// dependence still travels in deps.
	notZero bool
}

// isTop reports whether the fact carries no information.
func (f Fact) isTop() bool {
	return f.Const == nil && f.Null == NullUnknown && !f.HasLo && !f.HasHi && !f.notZero
}

// withDeps returns f with extra dependency bits.
func (f Fact) withDeps(deps uint64) Fact {
	f.deps |= deps
	return f
}

// constFact builds the fact for a known constant value.
func constFact(v pyvalue.Value) Fact {
	f := Fact{Const: v, Null: NullNever}
	switch v := v.(type) {
	case pyvalue.None:
		f.Null = NullAlways
	case pyvalue.Int:
		f.Lo, f.Hi, f.HasLo, f.HasHi = int64(v), int64(v), true, true
	}
	return f
}

// nonNull returns f refined to never-None.
func (f Fact) nonNull() Fact {
	if f.Null == NullUnknown {
		f.Null = NullNever
	}
	return f
}

// interval extracts the integer bounds, deriving them from an int
// constant when present.
func (f Fact) interval() (lo, hi int64, hasLo, hasHi bool) {
	if iv, ok := f.Const.(pyvalue.Int); ok {
		return int64(iv), int64(iv), true, true
	}
	return f.Lo, f.Hi, f.HasLo, f.HasHi
}

// nonZero reports whether the fact proves the value is a number ≠ 0.
func (f Fact) nonZero() bool {
	switch c := f.Const.(type) {
	case pyvalue.Int:
		return c != 0
	case pyvalue.Float:
		return c != 0
	case pyvalue.Bool:
		return bool(c)
	}
	if f.notZero {
		return true
	}
	lo, hi, hasLo, hasHi := f.interval()
	return (hasLo && lo > 0) || (hasHi && hi < 0)
}

// nonNegative reports whether the fact proves the value is ≥ 0.
func (f Fact) nonNegative() bool {
	lo, _, hasLo, _ := f.interval()
	return hasLo && lo >= 0
}

// truth decides the fact's Python truthiness when provable.
// ok is false when unknown.
func (f Fact) truth() (truthy, ok bool) {
	if f.Const != nil {
		return pyvalue.Truth(f.Const), true
	}
	if f.Null == NullAlways {
		return false, true
	}
	if f.notZero {
		// Only ever set for exact numeric values, where ≠ 0 ⇒ truthy.
		return true, true
	}
	lo, hi, hasLo, hasHi := f.interval()
	if (hasLo && lo > 0) || (hasHi && hi < 0) {
		return true, true
	}
	return false, false
}

// join is the lattice join for merging branch environments: the result
// holds only what both inputs guarantee.
func join(a, b Fact) Fact {
	out := Fact{deps: a.deps | b.deps}
	if a.Const != nil && b.Const != nil && sameScalar(a.Const, b.Const) {
		out.Const = a.Const
	}
	if a.Null == b.Null {
		out.Null = a.Null
	}
	alo, ahi, aHasLo, aHasHi := a.interval()
	blo, bhi, bHasLo, bHasHi := b.interval()
	if aHasLo && bHasLo {
		out.Lo, out.HasLo = min64(alo, blo), true
	}
	if aHasHi && bHasHi {
		out.Hi, out.HasHi = max64(ahi, bhi), true
	}
	out.notZero = a.nonZero() && b.nonZero()
	if out.isTop() {
		out.deps = 0
	}
	return out
}

// meet combines two facts known to hold simultaneously (used when a
// runtime-checked condition refines a seeded fact).
func meet(a, b Fact) Fact {
	out := Fact{deps: a.deps | b.deps}
	out.Const = a.Const
	if out.Const == nil {
		out.Const = b.Const
	}
	out.Null = a.Null
	if out.Null == NullUnknown {
		out.Null = b.Null
	}
	alo, ahi, aHasLo, aHasHi := a.interval()
	blo, bhi, bHasLo, bHasHi := b.interval()
	if aHasLo {
		out.Lo, out.HasLo = alo, true
	}
	if bHasLo && (!out.HasLo || blo > out.Lo) {
		out.Lo, out.HasLo = blo, true
	}
	if aHasHi {
		out.Hi, out.HasHi = ahi, true
	}
	if bHasHi && (!out.HasHi || bhi < out.Hi) {
		out.Hi, out.HasHi = bhi, true
	}
	out.notZero = a.notZero || b.notZero
	return out
}

// sameScalar is strict same-kind scalar equality (no Python cross-kind
// numeric folding: Int(1) and Float(1.0) stay distinct so constants keep
// the representation codegen will materialize).
func sameScalar(a, b pyvalue.Value) bool {
	switch a := a.(type) {
	case pyvalue.None:
		_, ok := b.(pyvalue.None)
		return ok
	case pyvalue.Bool:
		bb, ok := b.(pyvalue.Bool)
		return ok && a == bb
	case pyvalue.Int:
		bb, ok := b.(pyvalue.Int)
		return ok && a == bb
	case pyvalue.Float:
		bb, ok := b.(pyvalue.Float)
		return ok && a == bb
	case pyvalue.Str:
		bb, ok := b.(pyvalue.Str)
		return ok && a == bb
	}
	return false
}

// matchesType reports whether a constant value has exactly the
// representation the static type promises (folding substitutes the
// value for the expression, so the slot kind must match what the
// surrounding compiled code expects).
func matchesType(v pyvalue.Value, t types.Type) bool {
	switch v.(type) {
	case pyvalue.None:
		return t.Kind() == types.KindNull
	case pyvalue.Bool:
		return t.Kind() == types.KindBool
	case pyvalue.Int:
		return t.Kind() == types.KindI64
	case pyvalue.Float:
		return t.Kind() == types.KindF64
	case pyvalue.Str:
		return t.Kind() == types.KindStr
	}
	return false
}

// factFromType seeds the dep-free part of a fact from a normal-case
// type. The row classifier enforces the schema, so type-derived
// nullability needs no runtime guard.
func factFromType(t types.Type, nullFacts bool) Fact {
	if !nullFacts {
		return Fact{}
	}
	switch t.Kind() {
	case types.KindNull:
		return Fact{Const: pyvalue.None{}, Null: NullAlways}
	case types.KindOption, types.KindAny, types.KindInvalid:
		return Fact{}
	default:
		return Fact{Null: NullNever}
	}
}

// Interval arithmetic with explicit overflow checks: any overflow
// drops to top rather than wrapping.

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		return 0, false
	}
	return addOv(a, -b)
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// intervalAdd/Sub/Mul combine two integer intervals; unknown or
// overflowing bounds drop.
func intervalAdd(a, b Fact) (lo, hi int64, hasLo, hasHi bool) {
	alo, ahi, aHasLo, aHasHi := a.interval()
	blo, bhi, bHasLo, bHasHi := b.interval()
	if aHasLo && bHasLo {
		if s, ok := addOv(alo, blo); ok {
			lo, hasLo = s, true
		}
	}
	if aHasHi && bHasHi {
		if s, ok := addOv(ahi, bhi); ok {
			hi, hasHi = s, true
		}
	}
	return
}

func intervalSub(a, b Fact) (lo, hi int64, hasLo, hasHi bool) {
	alo, ahi, aHasLo, aHasHi := a.interval()
	blo, bhi, bHasLo, bHasHi := b.interval()
	if aHasLo && bHasHi {
		if s, ok := subOv(alo, bhi); ok {
			lo, hasLo = s, true
		}
	}
	if aHasHi && bHasLo {
		if s, ok := subOv(ahi, blo); ok {
			hi, hasHi = s, true
		}
	}
	return
}

func intervalMul(a, b Fact) (lo, hi int64, hasLo, hasHi bool) {
	alo, ahi, aHasLo, aHasHi := a.interval()
	blo, bhi, bHasLo, bHasHi := b.interval()
	if !(aHasLo && aHasHi && bHasLo && bHasHi) {
		return
	}
	c0, ok0 := mulOv(alo, blo)
	c1, ok1 := mulOv(alo, bhi)
	c2, ok2 := mulOv(ahi, blo)
	c3, ok3 := mulOv(ahi, bhi)
	if !(ok0 && ok1 && ok2 && ok3) {
		return
	}
	lo = min64(min64(c0, c1), min64(c2, c3))
	hi = max64(max64(c0, c1), max64(c2, c3))
	return lo, hi, true, true
}
