package pyvalue

import (
	"math"
	"testing"
	"testing/quick"
)

func wantVal(t *testing.T, got Value, err error, want Value) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if !Equal(got, want) || got.Kind() != want.Kind() {
		t.Fatalf("got %s (%s), want %s (%s)", Repr(got), TypeName(got), Repr(want), TypeName(want))
	}
}

func wantExc(t *testing.T, err error, kind ExcKind) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %v, got nil error", kind)
	}
	if KindOf(err) != kind {
		t.Fatalf("expected %v, got %v", kind, err)
	}
}

func TestArithmeticTypes(t *testing.T) {
	v, err := Add(Int(2), Int(3))
	wantVal(t, v, err, Int(5))
	v, err = Add(Int(2), Float(0.5))
	wantVal(t, v, err, Float(2.5))
	v, err = Add(Bool(true), Int(1)) // bool is an int in Python
	wantVal(t, v, err, Int(2))
	v, err = Add(Str("ab"), Str("cd"))
	wantVal(t, v, err, Str("abcd"))
	_, err = Add(Str("ab"), Int(1))
	wantExc(t, err, ExcTypeError)
	_, err = Add(None{}, Float(1.609))
	wantExc(t, err, ExcTypeError)
}

func TestTrueDivAlwaysFloat(t *testing.T) {
	v, err := TrueDiv(Int(7), Int(2))
	wantVal(t, v, err, Float(3.5))
	v, err = TrueDiv(Int(6), Int(3))
	wantVal(t, v, err, Float(2.0))
	_, err = TrueDiv(Int(1), Int(0))
	wantExc(t, err, ExcZeroDivisionError)
}

func TestFloorDivAndMod(t *testing.T) {
	// Python: -7 // 2 == -4, -7 % 2 == 1 (divisor's sign).
	v, err := FloorDiv(Int(-7), Int(2))
	wantVal(t, v, err, Int(-4))
	v, err = Mod(Int(-7), Int(2))
	wantVal(t, v, err, Int(1))
	v, err = Mod(Int(7), Int(-2))
	wantVal(t, v, err, Int(-1))
	v, err = FloorDiv(Float(7.5), Int(2))
	wantVal(t, v, err, Float(3.0))
	_, err = Mod(Int(1), Int(0))
	wantExc(t, err, ExcZeroDivisionError)
}

func TestFloorDivModInvariant(t *testing.T) {
	// (x // y) * y + (x % y) == x for all non-zero y.
	f := func(x, y int64) bool {
		if y == 0 {
			return true
		}
		return FloorDivInt(x, y)*y+FloorModInt(x, y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowSemantics(t *testing.T) {
	v, err := Pow(Int(2), Int(10))
	wantVal(t, v, err, Int(1024))
	v, err = Pow(Int(2), Int(-1)) // negative exponent -> float
	wantVal(t, v, err, Float(0.5))
	v, err = Pow(Float(2), Int(2))
	wantVal(t, v, err, Float(4.0))
}

func TestStringRepeat(t *testing.T) {
	v, err := Mul(Str("ab"), Int(3))
	wantVal(t, v, err, Str("ababab"))
	v, err = Mul(Int(0), Str("ab"))
	wantVal(t, v, err, Str(""))
	v, err = Mul(Str("x"), Int(-2))
	wantVal(t, v, err, Str(""))
}

func TestCompareMixedNumeric(t *testing.T) {
	v, err := Compare(OpLt, Int(1), Float(1.5))
	wantVal(t, v, err, Bool(true))
	v, err = Compare(OpEq, Int(1), Float(1.0))
	wantVal(t, v, err, Bool(true))
	v, err = Compare(OpEq, Str("1"), Int(1))
	wantVal(t, v, err, Bool(false)) // cross-type == is False, not an error
	_, err = Compare(OpLt, Str("a"), Int(1))
	wantExc(t, err, ExcTypeError) // cross-type < raises
}

func TestCompareStrings(t *testing.T) {
	v, err := Compare(OpLt, Str("abc"), Str("abd"))
	wantVal(t, v, err, Bool(true))
	v, err = Compare(OpGe, Str("b"), Str("ab"))
	wantVal(t, v, err, Bool(true))
}

func TestContains(t *testing.T) {
	v, err := Contains(Str("hello world"), Str("lo w"))
	wantVal(t, v, err, Bool(true))
	v, err = Contains(&List{Items: []Value{Int(1), Str("a")}}, Str("a"))
	wantVal(t, v, err, Bool(true))
	v, err = Contains(&Tuple{Items: []Value{Str("a"), Str("b")}}, Str("c"))
	wantVal(t, v, err, Bool(false))
	_, err = Contains(Int(5), Int(1))
	wantExc(t, err, ExcTypeError)
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{None{}, false}, {Bool(false), false}, {Int(0), false},
		{Float(0), false}, {Str(""), false}, {&List{}, false},
		{&Dict{}, false}, {Int(7), true}, {Str("0"), true},
		{Float(-0.5), true}, {&List{Items: []Value{None{}}}, true},
	}
	for _, c := range cases {
		if got := Truth(c.v); got != c.want {
			t.Errorf("Truth(%s) = %v, want %v", Repr(c.v), got, c.want)
		}
	}
}

func TestIndexingAndSlicing(t *testing.T) {
	s := Str("hello")
	v, err := GetIndex(s, Int(0))
	wantVal(t, v, err, Str("h"))
	v, err = GetIndex(s, Int(-1))
	wantVal(t, v, err, Str("o"))
	_, err = GetIndex(s, Int(5))
	wantExc(t, err, ExcIndexError)
	_, err = GetIndex(None{}, Int(0))
	wantExc(t, err, ExcTypeError)

	lo, hi := int64(1), int64(-1)
	v, err = GetSlice(s, &lo, &hi, nil)
	wantVal(t, v, err, Str("ell"))
	v, err = GetSlice(s, nil, &hi, nil)
	wantVal(t, v, err, Str("hell"))
	big := int64(100)
	v, err = GetSlice(s, nil, &big, nil) // clamping, no IndexError
	wantVal(t, v, err, Str("hello"))
	neg := int64(-100)
	v, err = GetSlice(s, &neg, nil, nil)
	wantVal(t, v, err, Str("hello"))
	step := int64(2)
	v, err = GetSlice(s, nil, nil, &step)
	wantVal(t, v, err, Str("hlo"))
	step = -1
	v, err = GetSlice(s, nil, nil, &step)
	wantVal(t, v, err, Str("olleh"))
}

func TestSliceEquivalenceWithPythonOracle(t *testing.T) {
	// Property: s[lo:hi] == ''.join(s[i] for i in range(*slice.indices)).
	s := "abcdefghij"
	f := func(lo, hi int8) bool {
		l, h := int64(lo), int64(hi)
		got, err := GetSlice(Str(s), &l, &h, nil)
		if err != nil {
			return false
		}
		// Oracle: resolve like Python's slice.indices.
		start, stop := SliceBounds(&l, &h, 1, int64(len(s)))
		want := ""
		for i := start; i < stop; i++ {
			want += string(s[i])
		}
		return string(got.(Str)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDictOps(t *testing.T) {
	d := NewDict()
	d.Set("b", Int(2))
	d.Set("a", Int(1))
	d.Set("b", Int(3)) // update keeps insertion order
	if got := d.Keys(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("keys = %v", got)
	}
	v, err := GetIndex(d, Str("b"))
	wantVal(t, v, err, Int(3))
	_, err = GetIndex(d, Str("zz"))
	wantExc(t, err, ExcKeyError)
}

func TestToIntSemantics(t *testing.T) {
	v, err := ToInt(Str("42"))
	wantVal(t, v, err, Int(42))
	v, err = ToInt(Str("  -17  ")) // whitespace ok
	wantVal(t, v, err, Int(-17))
	v, err = ToInt(Float(12.9)) // truncation toward zero
	wantVal(t, v, err, Int(12))
	v, err = ToInt(Float(-12.9))
	wantVal(t, v, err, Int(-12))
	_, err = ToInt(Str("12.5"))
	wantExc(t, err, ExcValueError)
	_, err = ToInt(Str(""))
	wantExc(t, err, ExcValueError)
	_, err = ToInt(Str("1,560"))
	wantExc(t, err, ExcValueError)
	_, err = ToInt(None{})
	wantExc(t, err, ExcTypeError)
}

func TestToFloatSemantics(t *testing.T) {
	v, err := ToFloat(Str("1.609"))
	wantVal(t, v, err, Float(1.609))
	v, err = ToFloat(Str("2e7"))
	wantVal(t, v, err, Float(2e7))
	v, err = ToFloat(Int(3))
	wantVal(t, v, err, Float(3))
	_, err = ToFloat(Str("abc"))
	wantExc(t, err, ExcValueError)
	_, err = ToFloat(None{})
	wantExc(t, err, ExcTypeError)
}

func TestReprAndStr(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{None{}, "None"},
		{Bool(true), "True"},
		{Int(-5), "-5"},
		{Float(1.609), "1.609"},
		{Float(2e7), "20000000.0"},
		{Float(3.0), "3.0"},
		{Str("a'b"), `'a\'b'`},
		{&Tuple{Items: []Value{Int(1)}}, "(1,)"},
		{&List{Items: []Value{Int(1), Str("x")}}, "[1, 'x']"},
	}
	for _, c := range cases {
		if got := Repr(c.v); got != c.want {
			t.Errorf("Repr(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if ToStr(Str("ab")) != "ab" {
		t.Error("str() of str must not quote")
	}
}

func TestFloatReprEdges(t *testing.T) {
	cases := map[float64]string{
		0.1:         "0.1",
		1e16:        "1e+16",
		1e-5:        "1e-05",
		0.0001:      "0.0001",
		123456.0:    "123456.0",
		math.Inf(1): "inf",
	}
	for f, want := range cases {
		if got := FloatRepr(f); got != want {
			t.Errorf("FloatRepr(%v) = %q, want %q", f, got, want)
		}
	}
}

func TestEqualityProperties(t *testing.T) {
	// Symmetry of Equal over a mixed pool of values.
	pool := []Value{
		None{}, Bool(true), Bool(false), Int(0), Int(1), Float(0),
		Float(1), Str(""), Str("1"), &List{Items: []Value{Int(1)}},
		&Tuple{Items: []Value{Int(1)}},
	}
	for _, a := range pool {
		for _, b := range pool {
			if Equal(a, b) != Equal(b, a) {
				t.Fatalf("Equal not symmetric for %s, %s", Repr(a), Repr(b))
			}
		}
		if !Equal(a, a) {
			t.Fatalf("Equal not reflexive for %s", Repr(a))
		}
	}
	if !Equal(Int(1), Bool(true)) || !Equal(Float(0), Bool(false)) {
		t.Fatal("numeric tower equality broken")
	}
	if Equal(Str("1"), Int(1)) {
		t.Fatal("cross-type equality should be False")
	}
}

func TestMinMaxRound(t *testing.T) {
	v, err := MinMax([]Value{Int(3), Float(1.5), Int(2)}, false)
	wantVal(t, v, err, Float(1.5))
	v, err = MinMax([]Value{Int(3), Float(1.5)}, true)
	wantVal(t, v, err, Int(3))
	v, err = Round(Float(2.5), nil) // banker's rounding
	wantVal(t, v, err, Int(2))
	v, err = Round(Float(3.5), nil)
	wantVal(t, v, err, Int(4))
	nd := int64(2)
	v, err = Round(Float(2.675), &nd)
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(v.(Float)); math.Abs(f-2.67) > 0.011 {
		t.Fatalf("round(2.675, 2) = %v", f)
	}
}

func TestNegPosAbs(t *testing.T) {
	v, err := Neg(Int(5))
	wantVal(t, v, err, Int(-5))
	v, err = Neg(Bool(true))
	wantVal(t, v, err, Int(-1))
	_, err = Neg(Str("a"))
	wantExc(t, err, ExcTypeError)
	v, err = Abs(Float(-2.5))
	wantVal(t, v, err, Float(2.5))
}

func TestCopyIsDeep(t *testing.T) {
	inner := &List{Items: []Value{Int(1)}}
	d := NewDict()
	d.Set("k", inner)
	cp := Copy(d).(*Dict)
	got, _ := cp.Get("k")
	got.(*List).Items[0] = Int(99)
	if !Equal(inner.Items[0], Int(1)) {
		t.Fatal("Copy shared interior list")
	}
}

func TestMatchIndexing(t *testing.T) {
	m := &Match{Groups: []string{"ab cd", "ab", ""}, Present: []bool{true, true, false}}
	v, err := GetIndex(m, Int(1))
	wantVal(t, v, err, Str("ab"))
	v, err = GetIndex(m, Int(2))
	wantVal(t, v, err, None{})
	_, err = GetIndex(m, Int(3))
	wantExc(t, err, ExcIndexError)
}
