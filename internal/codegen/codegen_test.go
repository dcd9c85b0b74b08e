package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/interp"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// compileUDF parses, types and compiles a UDF for the given param types.
func compileUDF(t *testing.T, src string, params []types.Type, opts Options) (*UDF, *inference.Info) {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := inference.TypeFunction(fn, params, nil, inference.Options{})
	if err != nil {
		t.Fatalf("inference: %v", err)
	}
	u, err := Compile(info, nil, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return u, info
}

func callUDF(t *testing.T, u *UDF, args ...rows.Slot) (rows.Slot, ECode) {
	t.Helper()
	fr := NewFrame(u.NumSlots())
	return u.Call(fr, args)
}

func wantSlot(t *testing.T, got rows.Slot, ec ECode, want rows.Slot) {
	t.Helper()
	if ec != 0 {
		t.Fatalf("unexpected exception %v", ec)
	}
	if !rows.Equal(got, want) || got.Tag != want.Tag {
		t.Fatalf("got %v (%v), want %v (%v)", got.Value(), got.Tag, want.Value(), want.Tag)
	}
}

func TestCompiledArithmetic(t *testing.T) {
	u, _ := compileUDF(t, "lambda m: m * 1.609", []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(100))
	wantSlot(t, v, ec, rows.F64(160.9))
	if !types.Equal(u.ReturnType(), types.F64) {
		t.Fatalf("ret = %s", u.ReturnType())
	}
}

func TestCompiledIntOps(t *testing.T) {
	u, _ := compileUDF(t, "lambda a, b: a // b + a % b", []types.Type{types.I64, types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(-7), rows.I64(2))
	wantSlot(t, v, ec, rows.I64(-3)) // -4 + 1
	_, ec = callUDF(t, u, rows.I64(1), rows.I64(0))
	if ec != pyvalue.ExcZeroDivisionError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestCompiledTernaryWithOption(t *testing.T) {
	u, _ := compileUDF(t, "lambda m: m * 1.609 if m else 0.0",
		[]types.Type{types.Option(types.F64)}, DefaultOptions())
	v, ec := callUDF(t, u, rows.F64(2))
	wantSlot(t, v, ec, rows.F64(3.218))
	v, ec = callUDF(t, u, rows.Null())
	wantSlot(t, v, ec, rows.F64(0))
}

func TestCompiledNullPathConstantFold(t *testing.T) {
	// Column typed Null: the then branch is dead; result is the constant
	// else arm (the paper's 3-instruction example).
	u, info := compileUDF(t, "lambda m: m * 1.609 if m else 0.0",
		[]types.Type{types.Null}, DefaultOptions())
	if len(info.Dead) != 1 {
		t.Fatalf("dead = %v", info.Dead)
	}
	v, ec := callUDF(t, u, rows.Null())
	wantSlot(t, v, ec, rows.F64(0))
}

func TestCompiledRowAccess(t *testing.T) {
	sch := types.NewSchema([]types.Column{
		{Name: "price", Type: types.I64},
		{Name: "city", Type: types.Str},
	})
	u, _ := compileUDF(t, "lambda x: x['price'] * 2", []types.Type{types.Row(sch)}, DefaultOptions())
	row := rows.Tuple([]rows.Slot{rows.I64(21), rows.Str("boston")})
	v, ec := callUDF(t, u, row)
	wantSlot(t, v, ec, rows.I64(42))

	u2, _ := compileUDF(t, "lambda x: x[1].upper()", []types.Type{types.Row(sch)}, DefaultOptions())
	v, ec = callUDF(t, u2, row)
	wantSlot(t, v, ec, rows.Str("BOSTON"))
}

func TestCompiledStringMethods(t *testing.T) {
	u, _ := compileUDF(t, "lambda s: s[s.find('$')+1:].replace(',', '')",
		[]types.Type{types.Str}, DefaultOptions())
	v, ec := callUDF(t, u, rows.Str("$1,250,000"))
	wantSlot(t, v, ec, rows.Str("1250000"))
}

func TestCompiledIntParse(t *testing.T) {
	u, _ := compileUDF(t, "lambda s: int(s)", []types.Type{types.Str}, DefaultOptions())
	v, ec := callUDF(t, u, rows.Str(" 42 "))
	wantSlot(t, v, ec, rows.I64(42))
	_, ec = callUDF(t, u, rows.Str("1,5"))
	if ec != pyvalue.ExcValueError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestCompiledNoneMethodRaisesAttributeError(t *testing.T) {
	// Optional string column, receiver is None at runtime.
	u, _ := compileUDF(t, "lambda s: s.find('x')",
		[]types.Type{types.Option(types.Str)}, DefaultOptions())
	_, ec := callUDF(t, u, rows.Null())
	if ec != pyvalue.ExcAttributeError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestCompiledChainedCompare(t *testing.T) {
	u, _ := compileUDF(t, "lambda x: 100000 < x <= 2e7", []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(150000))
	wantSlot(t, v, ec, rows.Bool(true))
	v, ec = callUDF(t, u, rows.I64(99))
	wantSlot(t, v, ec, rows.Bool(false))
}

func TestCompiledRegexSearch(t *testing.T) {
	src := `def parse(x):
    match = re_search('^(\S+) (\S+)', x)
    if match:
        return match[1]
    return ''
`
	u, _ := compileUDF(t, src, []types.Type{types.Str}, DefaultOptions())
	v, ec := callUDF(t, u, rows.Str("1.2.3.4 - rest"))
	wantSlot(t, v, ec, rows.Str("1.2.3.4"))
	v, ec = callUDF(t, u, rows.Str(""))
	wantSlot(t, v, ec, rows.Str(""))
}

func TestCompiledReSub(t *testing.T) {
	u, _ := compileUDF(t, "lambda x: re_sub('^/~[^/]+', '/~anon', x)",
		[]types.Type{types.Str}, DefaultOptions())
	v, ec := callUDF(t, u, rows.Str("/~alice/pubs"))
	wantSlot(t, v, ec, rows.Str("/~anon/pubs"))
}

func TestCompiledRangeLoop(t *testing.T) {
	src := `def f(n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            continue
        total += i
    return total
`
	u, _ := compileUDF(t, src, []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(10))
	wantSlot(t, v, ec, rows.I64(25))
}

func TestCompiledListCompJoin(t *testing.T) {
	fn, err := pyast.ParseUDF("lambda x: ''.join([random_choice(LETTERS) for t in range(10)])")
	if err != nil {
		t.Fatal(err)
	}
	info, err := inference.TypeFunction(fn, []types.Type{types.Str},
		map[string]types.Type{"LETTERS": types.Str}, inference.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Compilable() {
		t.Fatalf("failed: %v", info.Failed)
	}
	u, err := Compile(info, map[string]pyvalue.Value{"LETTERS": pyvalue.Str("ABC")}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v, ec := callUDF(t, u, rows.Str("x"))
	if ec != 0 {
		t.Fatalf("ec = %v", ec)
	}
	if len(v.S) != 10 {
		t.Fatalf("len = %d", len(v.S))
	}
	for i := range v.S {
		if v.S[i] < 'A' || v.S[i] > 'C' {
			t.Fatalf("bad char %q", v.S)
		}
	}
}

func TestCompiledDictReturn(t *testing.T) {
	u, _ := compileUDF(t, "lambda x: {'a': x + 1, 'b': 'y'}", []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(1))
	if ec != 0 {
		t.Fatalf("ec = %v", ec)
	}
	keys, ok := rows.DictSlotKeys(v)
	if !ok || len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("keys = %v, %v", keys, ok)
	}
	if !rows.Equal(v.Seq[0], rows.I64(2)) {
		t.Fatalf("a = %v", v.Seq[0])
	}
}

func TestCompiledFailedNodeExits(t *testing.T) {
	// str + int is a static TypeError: compiled code must return the
	// TypeError code, sending the row to the exception path.
	u, info := compileUDF(t, "lambda x: x + 1", []types.Type{types.Str}, DefaultOptions())
	if info.Compilable() {
		t.Fatal("should not be compilable")
	}
	_, ec := callUDF(t, u, rows.Str("a"))
	if ec != pyvalue.ExcTypeError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestCompiledFormatCalls(t *testing.T) {
	u, _ := compileUDF(t, "lambda x: '{:02}:{:02}'.format(int(x / 100), x % 100)",
		[]types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(545))
	wantSlot(t, v, ec, rows.Str("05:45"))

	u2, _ := compileUDF(t, "lambda x: '%05d' % int(x)", []types.Type{types.Str}, DefaultOptions())
	v, ec = callUDF(t, u2, rows.Str("2134"))
	wantSlot(t, v, ec, rows.Str("02134"))
}

// TestCompiledMatchesInterpreter is the core dual-mode invariant (§4.1):
// for rows on the fast path, compiled execution must be indistinguishable
// from the interpreter — same values or same exception kinds.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cases := []struct {
		src    string
		params []types.Type
		args   [][]rows.Slot
	}{
		{
			"lambda m: m * 1.609 if m else 0.0",
			[]types.Type{types.Option(types.F64)},
			[][]rows.Slot{{rows.F64(2)}, {rows.Null()}, {rows.F64(0)}},
		},
		{
			"lambda a, b: a / b",
			[]types.Type{types.I64, types.I64},
			[][]rows.Slot{{rows.I64(7), rows.I64(2)}, {rows.I64(1), rows.I64(0)}},
		},
		{
			"lambda s: s[0].upper() + s[1:].lower()",
			[]types.Type{types.Str},
			[][]rows.Slot{{rows.Str("bOSTON")}, {rows.Str("")}, {rows.Str("x")}},
		},
		{
			"lambda s: int(s.replace(',', ''))",
			[]types.Type{types.Str},
			[][]rows.Slot{{rows.Str("1,560")}, {rows.Str("bad")}, {rows.Str("")}},
		},
		{
			"lambda x: 100000 < x <= 2e7",
			[]types.Type{types.F64},
			[][]rows.Slot{{rows.F64(5e5)}, {rows.F64(1)}, {rows.F64(2e7)}},
		},
		{
			`def f(n):
    total = 0
    for i in range(n):
        total += i * i
    return total
`,
			[]types.Type{types.I64},
			[][]rows.Slot{{rows.I64(10)}, {rows.I64(0)}, {rows.I64(-3)}},
		},
		{
			"lambda s: s.split(',')[1].strip()",
			[]types.Type{types.Str},
			[][]rows.Slot{{rows.Str("a, b, c")}, {rows.Str("solo")}},
		},
		{
			"lambda s: 'sale' in s or 'rent' in s",
			[]types.Type{types.Str},
			[][]rows.Slot{{rows.Str("for sale!")}, {rows.Str("to rent")}, {rows.Str("sold")}},
		},
		{
			"lambda x: -x ** 2",
			[]types.Type{types.I64},
			[][]rows.Slot{{rows.I64(3)}, {rows.I64(-2)}},
		},
		{
			"lambda s: s.strip()[1:-1]",
			[]types.Type{types.Str},
			[][]rows.Slot{{rows.Str("  [abc]  ")}, {rows.Str("")}},
		},
	}
	for _, tc := range cases {
		for _, mode := range []Options{DefaultOptions(), {Specialize: false}} {
			u, _ := compileUDF(t, tc.src, tc.params, mode)
			fn, _ := pyast.ParseUDF(tc.src)
			ip := interp.New(nil)
			for _, args := range tc.args {
				gotSlot, gotEc := callUDF(t, u, args...)
				boxedArgs := make([]pyvalue.Value, len(args))
				for i, a := range args {
					boxedArgs[i] = a.Value()
				}
				want, werr := ip.Call(fn, boxedArgs)
				wantEc := pyvalue.KindOf(werr)
				if gotEc != 0 {
					// ExcUnsupported means "retry on general path": verify
					// the general path (boxed) handles it. Otherwise the
					// exception kinds must agree.
					if gotEc != pyvalue.ExcUnsupported && gotEc != wantEc {
						t.Errorf("%s %v [spec=%v]: compiled ec=%v, interp err=%v",
							tc.src, args, mode.Specialize, gotEc, werr)
					}
					continue
				}
				if wantEc != 0 {
					t.Errorf("%s %v [spec=%v]: compiled ok, interp err=%v", tc.src, args, mode.Specialize, werr)
					continue
				}
				if !pyvalue.Equal(gotSlot.Value(), want) {
					t.Errorf("%s %v [spec=%v]: compiled %s, interp %s",
						tc.src, args, mode.Specialize, pyvalue.Repr(gotSlot.Value()), pyvalue.Repr(want))
				}
			}
		}
	}
}

func TestCompiledZillowExtractBd(t *testing.T) {
	src := `def extractBd(x):
    val = x['facts and features']
    max_idx = val.find(' bd')
    if max_idx < 0:
        max_idx = len(val)
    s = val[:max_idx]
    split_idx = s.rfind(',')
    if split_idx < 0:
        split_idx = 0
    else:
        split_idx += 2
    r = s[split_idx:]
    return int(r)
`
	sch := types.NewSchema([]types.Column{{Name: "facts and features", Type: types.Str}})
	u, info := compileUDF(t, src, []types.Type{types.Row(sch)}, DefaultOptions())
	if !info.Compilable() {
		t.Fatalf("failed: %v", info.Failed)
	}
	row := rows.Tuple([]rows.Slot{rows.Str("3 bds, 2 ba , 1,560 sqft")})
	v, ec := callUDF(t, u, row)
	wantSlot(t, v, ec, rows.I64(3))
	// Dirty row raises ValueError as a return code.
	dirty := rows.Tuple([]rows.Slot{rows.Str("studio apartment")})
	_, ec = callUDF(t, u, dirty)
	if ec != pyvalue.ExcValueError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestUnassignedLocalRaisesNameError(t *testing.T) {
	src := `def f(x):
    if x > 0:
        y = 1
    return y
`
	u, _ := compileUDF(t, src, []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(5))
	wantSlot(t, v, ec, rows.I64(1))
	_, ec = callUDF(t, u, rows.I64(-1))
	if ec != pyvalue.ExcNameError {
		t.Fatalf("ec = %v", ec)
	}
}

func TestFrameReuseDoesNotLeakState(t *testing.T) {
	src := `def f(x):
    if x > 0:
        y = x
    else:
        y = 0
    return y
`
	u, _ := compileUDF(t, src, []types.Type{types.I64}, DefaultOptions())
	fr := NewFrame(u.NumSlots())
	v, ec := u.Call(fr, []rows.Slot{rows.I64(7)})
	wantSlot(t, v, ec, rows.I64(7))
	// Second call with the else path must not see the previous y.
	v, ec = u.Call(fr, []rows.Slot{rows.I64(-1)})
	wantSlot(t, v, ec, rows.I64(0))
}

// TestIntCompareExactInEveryTier pins Python's exact int ordering at the
// 2^53 boundary, where float64 merges neighbours, on all four executable
// forms of a UDF: the vector program, the row closure, the interpreter's
// closure compiler (interp.Compiled, the blackbox baselines') and the
// tree-walker.
func TestIntCompareExactInEveryTier(t *testing.T) {
	const p53 = 1 << 53
	row := make(rows.Row, len(vecCols))
	for i, c := range vecCols {
		switch c.Name {
		case "a":
			row[i] = rows.I64(p53)
		case "b", "e", "k":
			row[i] = rows.I64(p53 + 1)
		case "c", "d", "g":
			row[i] = rows.F64(p53)
		case "h":
			row[i] = rows.Bool(true)
		case "n":
			row[i] = rows.Null()
		default:
			row[i] = rows.Str("x")
		}
	}
	batch := vecBatch{rows: []rows.Row{row}}
	for i, c := range vecCols {
		batch.cols = append(batch.cols, colvec.NewVec(c.Type))
		batch.cols[i].AppendSlot(row[i])
	}
	names := make([]string, len(vecCols))
	for i, c := range vecCols {
		names[i] = c.Name
	}
	boxedRow := []pyvalue.Value{rows.DictRow(names, row)}
	ip := interp.New(vecGlobals)
	st := NewVecState()
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"lambda r: r['a'] < r['b']", true},
		{"lambda r: r['a'] >= r['b']", false},
		{"lambda r: r['b'] > r['a']", true},
		{"lambda r: r['a'] == r['b']", false},
		{"lambda r: r['a'] != r['b']", true},
		{"lambda r: r['a'] < 9007199254740993", true},
		{"lambda r: r['a'] < r['e']", true},
		{"lambda r: r['e'] <= r['a']", false},
		{"lambda r: r['a'] < r['b'] <= r['k']", true},
		{"lambda r: r['a'] <= r['a'] < r['b']", true},
		{"lambda r: r['c'] <= r['a'] < r['b']", true},
	} {
		u := compileVecUDF(t, c.src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized (%s)", c.src, u.VecDecline)
		}
		out := u.Vec.Filter(st, batch.cols, 0, 1, []int32{0}, nil)
		if len(st.Bail()) != 0 || (len(out) == 1) != c.want {
			t.Errorf("%s: vector program selects %v (bail %v), want %v", c.src, out, st.Bail(), c.want)
		}
		if v, ec := u.Call1(NewFrame(u.NumSlots()), rows.Tuple(row)); ec != 0 || v.Tag != types.KindBool || v.B != c.want {
			t.Errorf("%s: row closure = %v (ec %v), want %v", c.src, v.Value(), ec, c.want)
		}
		fn, _ := pyast.ParseUDF(c.src)
		compiled, err := ip.Compile(fn)
		if err != nil {
			t.Fatalf("%s: interp compile: %v", c.src, err)
		}
		if v, err := compiled.Call(ip, boxedRow); err != nil || v != pyvalue.Bool(c.want) {
			t.Errorf("%s: interp.Compiled = %v (%v), want %v", c.src, v, err, c.want)
		}
		if v, err := ip.Call(fn, boxedRow); err != nil || v != pyvalue.Bool(c.want) {
			t.Errorf("%s: tree-walker = %v (%v), want %v", c.src, v, err, c.want)
		}
	}
}

// rowVsInterp holds compiled execution of src (both Specialize modes, over
// the vector test schema) and interp.Compiled (the blackbox baselines'
// closure compiler) to the tree-walker on each row: equal values (NaN
// matching NaN) or the same exception kind. A row closure's ExcUnsupported is a request to retry on
// the general path, and passes.
func rowVsInterp(t *testing.T, src string, b vecBatch, ip *interp.Interp, names []string) (checked int) {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	general, err := ip.Compile(fn)
	if err != nil {
		t.Fatalf("interp compile %q: %v", src, err)
	}
	same := func(g, w pyvalue.Value) bool {
		gf, gok := g.(pyvalue.Float)
		wf, wok := w.(pyvalue.Float)
		return pyvalue.Equal(g, w) || gok && wok && gf != gf && wf != wf
	}
	for _, row := range b.rows {
		arg := []pyvalue.Value{rows.DictRow(names, row)}
		got, gerr := general.Call(ip, arg)
		want, werr := ip.Call(fn, arg)
		if pyvalue.KindOf(gerr) != pyvalue.KindOf(werr) || werr == nil && !same(got, want) {
			t.Fatalf("%s row %v: interp.Compiled %v (%v), interpreter %v (%v)", src, rows.RowToValues(row), got, gerr, want, werr)
		}
	}
	gt := map[string]types.Type{"KI": types.I64, "KF": types.F64, "KB": types.Bool, "KS": types.Str}
	for _, spec := range []bool{true, false} {
		info, err := inference.TypeFunction(fn, []types.Type{rowType()}, gt, inference.Options{})
		if err != nil {
			t.Fatalf("inference %q: %v", src, err)
		}
		u, err := Compile(info, vecGlobals, Options{Specialize: spec})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		fr := NewFrame(u.NumSlots())
		for _, row := range b.rows {
			got, ec := u.Call1(fr, rows.Tuple(row))
			want, werr := ip.Call(fn, []pyvalue.Value{rows.DictRow(names, row)})
			wantEc := pyvalue.KindOf(werr)
			switch {
			case ec == pyvalue.ExcUnsupported:
				continue
			case ec != 0 || wantEc != 0:
				if ec != wantEc {
					t.Fatalf("%s [spec=%v] row %v: compiled raises %v, interpreter %v", src, spec, rows.RowToValues(row), ec, werr)
				}
			default:
				if g := got.Value(); !same(g, want) {
					t.Fatalf("%s [spec=%v] row %v: compiled %s, interpreter %s", src, spec, rows.RowToValues(row), pyvalue.Repr(g), pyvalue.Repr(want))
				}
			}
			checked++
		}
	}
	return checked
}

// TestCompiledMatchesInterpreterGenerated is TestCompiledMatchesInterpreter
// over the differential suites' generators: numeric and boolean
// expressions over every pyvalue.Op (Option operands, chained compares)
// and statement-bodied
// string UDFs (slices, parses, % and .format over ints), on cells drawn
// from intPool, floatPool and strPool.
func TestCompiledMatchesInterpreterGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	names := make([]string, len(vecCols))
	for i, c := range vecCols {
		names[i] = c.Name
	}
	ip := interp.New(vecGlobals)
	eg := &exprGen{rng: rng}
	sg := &stmtGen{exprGen: exprGen{rng: rng}}
	checked := 0
	for i := 0; i < 1500; i++ {
		var src string
		switch i % 3 {
		case 0:
			src = "lambda r: " + eg.num(3)
		case 1:
			src = "lambda r: " + eg.boolean(3)
		default:
			src = sg.udf("snb"[i/3%3], i%4 == 0)
		}
		checked += rowVsInterp(t, src, randomStrBatch(rng, 12, nullModes[i%len(nullModes)]), ip, names)
	}
	if checked < 20000 {
		t.Fatalf("only %d rows compared; the generators or the compiler regressed", checked)
	}
}

// FuzzRowClosure is TestCompiledMatchesInterpreterGenerated's numeric
// and boolean expressions, over every pyvalue.Op, from a fuzzed generator
// seed: the row closure (Call1, Specialize on and off) and
// interp.Compiled held to the tree-walker on a random batch, value
// for value or exception kind for exception kind.
func FuzzRowClosure(f *testing.F) {
	for _, seed := range []int64{1, 7, 20261016} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	names := make([]string, len(vecCols))
	for i, c := range vecCols {
		names[i] = c.Name
	}
	f.Fuzz(func(t *testing.T, seed int64, boolean bool) {
		rng := rand.New(rand.NewSource(seed))
		eg := &exprGen{rng: rng}
		src := "lambda r: " + eg.num(3)
		if boolean {
			src = "lambda r: " + eg.boolean(3)
		}
		b := randomStrBatch(rng, 12, nullModes[rng.Intn(len(nullModes))])
		rowVsInterp(t, src, b, interp.New(vecGlobals), names)
	})
}

// termsUDF is an n-term conditional sum over one int, the shape of a
// compile-heavy plan: a + 7 + Σ (a*k if a % (k+1) == 0 else k - a).
func termsUDF(n int) string {
	var sb strings.Builder
	sb.WriteString("lambda a: a + 7")
	for k := 1; k <= n; k++ {
		fmt.Fprintf(&sb, " + (a * %d if a %% %d == 0 else %d - a)", k, k+1, k)
	}
	return sb.String()
}

// TestCompileLinearInUDFSize guards against a compile that revisits
// operand subtrees at every level of a left-deep expression: doubling
// the UDF must not much more than double what compiling it allocates.
func TestCompileLinearInUDFSize(t *testing.T) {
	allocs := func(n int) float64 {
		src := termsUDF(n)
		return testing.AllocsPerRun(5, func() { compileUDF(t, src, []types.Type{types.I64}, DefaultOptions()) })
	}
	a40, a80 := allocs(40), allocs(80)
	if a80 >= 2.5*a40 {
		t.Fatalf("compiling 80 terms allocates %.0f times, 40 terms %.0f: %.1fx for twice the UDF", a80, a40, a80/a40)
	}
	u, _ := compileUDF(t, termsUDF(40), []types.Type{types.I64}, DefaultOptions())
	v, ec := callUDF(t, u, rows.I64(12))
	want := int64(12 + 7)
	for k := int64(1); k <= 40; k++ {
		if 12%(k+1) == 0 {
			want += 12 * k
		} else {
			want += k - 12
		}
	}
	wantSlot(t, v, ec, rows.I64(want))
}

// BenchmarkCompileUDF is parse, type inference and compilation of the
// 40-term UDF.
func BenchmarkCompileUDF(b *testing.B) {
	src := termsUDF(40)
	for i := 0; i < b.N; i++ {
		fn, err := pyast.ParseUDF(src)
		if err != nil {
			b.Fatal(err)
		}
		info, err := inference.TypeFunction(fn, []types.Type{types.I64}, nil, inference.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compile(info, nil, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// serveUDF is the withColumn UDF of serve.cold's and serve.warm's light
// plan over column c0: x['c0'] + k0 + Σ (x['c0']*(t+1) if x['c0'] %
// (t+2) == 0 else t - x['c0']), 40 terms.
func serveUDF() string {
	var sb strings.Builder
	sb.WriteString("lambda x: x['c0'] + k0")
	for t := 0; t < 40; t++ {
		fmt.Fprintf(&sb, " + (x['c0'] * %d if x['c0'] %% %d == 0 else %d - x['c0'])", t+1, t+2, t)
	}
	return sb.String()
}

// BenchmarkRowClosure is one row-closure call (Call1) of the 40-term UDF
// over an int parameter (terms) and of the light serve plan's UDF over a
// row parameter (row): the path a batch below the engine's vector
// minimum takes for every row.
func BenchmarkRowClosure(b *testing.B) {
	rowCols := []types.Column{{Name: "a", Type: types.I64}, {Name: "s", Type: types.Str}, {Name: "c0", Type: types.I64}}
	for _, c := range []struct {
		name, src string
		param     types.Type
		arg       rows.Slot
	}{
		{"terms", termsUDF(40), types.I64, rows.I64(12)},
		{"row", serveUDF(), types.Row(types.NewSchema(rowCols)), rows.Tuple([]rows.Slot{rows.I64(3), rows.Str("cc"), rows.I64(12)})},
	} {
		b.Run(c.name, func(b *testing.B) {
			fn, err := pyast.ParseUDF(c.src)
			if err != nil {
				b.Fatal(err)
			}
			info, err := inference.TypeFunction(fn, []types.Type{c.param}, map[string]types.Type{"k0": types.I64}, inference.Options{})
			if err != nil {
				b.Fatal(err)
			}
			u, err := Compile(info, map[string]pyvalue.Value{"k0": pyvalue.Int(5)}, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			fr := NewFrame(u.NumSlots())
			if v, ec := u.Call1(fr, c.arg); ec != 0 || v.Tag != types.KindI64 {
				b.Fatalf("%v (%v)", v.Value(), ec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Call1(fr, c.arg)
			}
		})
	}
}

// TestSliceClosureAllocs pins string slicing in a row closure to no
// allocation: the bounds of s[1:] and s[:k] stay on the stack.
func TestSliceClosureAllocs(t *testing.T) {
	for _, src := range []string{"lambda s: s[1:]", "lambda s: s[:2]", "lambda s: s[1:-1]"} {
		u, _ := compileUDF(t, src, []types.Type{types.Str}, DefaultOptions())
		fr := NewFrame(u.NumSlots())
		arg := rows.Str("abcdef")
		if v, ec := u.Call1(fr, arg); ec != 0 || v.Tag != types.KindStr {
			t.Fatalf("%s: %v (%v)", src, v.Value(), ec)
		}
		if allocs := testing.AllocsPerRun(100, func() { u.Call1(fr, arg) }); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", src, allocs)
		}
	}
}

// TestRowDivergencesPinned pins the row-closure and interpreter
// divergences the generated differential found, each at Python's answer:
// an exception kind, or a value. Every case failed on some tier before.
func TestRowDivergencesPinned(t *testing.T) {
	names := make([]string, len(vecCols))
	for i, c := range vecCols {
		names[i] = c.Name
	}
	gt := map[string]types.Type{"KI": types.I64, "KF": types.F64, "KB": types.Bool, "KS": types.Str}
	ip := interp.New(vecGlobals)
	nan := pyvalue.Float(math.NaN())
	for _, c := range []struct {
		src   string
		cells map[string]rows.Slot
		want  pyvalue.Value // nil: wantEc
		ec    ECode
	}{
		// Both operands evaluate before the operator checks their types.
		{"lambda r: r['g'] / (1 / r['c'])", map[string]rows.Slot{"g": rows.Null(), "c": rows.F64(0)}, nil, pyvalue.ExcZeroDivisionError},
		// A subscript evaluates its index before checking the container.
		{"lambda r: r['s'][int(',')]", map[string]rows.Slot{"s": rows.Null()}, nil, pyvalue.ExcValueError},
		// A method is looked up before its arguments are evaluated.
		{"lambda r: r['s'].lstrip(r['s'][:5])", map[string]rows.Slot{"s": rows.Null()}, nil, pyvalue.ExcAttributeError},
		// NaN orders false against everything.
		{"lambda r: r['c'] <= 1.5", map[string]rows.Slot{"c": rows.F64(float64(nan))}, pyvalue.Bool(false), 0},
		{"lambda r: r['c'] >= r['c']", map[string]rows.Slot{"c": rows.F64(float64(nan))}, pyvalue.Bool(false), 0},
		// int() of NaN or infinity raises.
		{"lambda r: int(r['c'])", map[string]rows.Slot{"c": rows.F64(float64(nan))}, nil, pyvalue.ExcValueError},
		{"lambda r: int(r['c'])", map[string]rows.Slot{"c": rows.F64(math.Inf(-1))}, nil, pyvalue.ExcOverflowError},
		// None slice bounds and strip sets mean "absent".
		{"lambda r: r['t'][r['e']:]", map[string]rows.Slot{"t": rows.Str("abc"), "e": rows.Null()}, pyvalue.Str("abc"), 0},
		{"lambda r: r['t'].strip(r['s'])", map[string]rows.Slot{"t": rows.Str(" x "), "s": rows.Null()}, pyvalue.Str("x"), 0},
		// An f64-typed value may hold an int or a bool: two ints compute as
		// ints, and truthiness reads the value held.
		{"lambda r: (r['a'] if r['h'] else r['c']) * 3", map[string]rows.Slot{"a": rows.I64(1<<53 + 1), "h": rows.Bool(true)}, pyvalue.Int((1<<53 + 1) * 3), 0},
		{"lambda r: 'y' if (r['h'] if r['h'] else r['c']) else 'n'", map[string]rows.Slot{"h": rows.Bool(true)}, pyvalue.Str("y"), 0},
		// An int-typed conditional returns the bool its taken arm holds.
		{"lambda r: r['h'] if r['h'] else r['a']", map[string]rows.Slot{"h": rows.Bool(true)}, pyvalue.Bool(true), 0},
		// An int operand that is None still lets the other evaluate first.
		{"lambda r: r['e'] + (1 // (r['a'] - r['a']))", map[string]rows.Slot{"e": rows.Null()}, nil, pyvalue.ExcZeroDivisionError},
		// A bool indexes as 0 or 1.
		{"lambda r: 'abc'[r['h']]", map[string]rows.Slot{"h": rows.Bool(true)}, pyvalue.Str("b"), 0},
		// An unbound local raises NameError before the other operand runs.
		{"def f(r):\n    if r['h']:\n        y = 1\n    return y + (1 // (r['a'] - r['a']))\n", nil, nil, pyvalue.ExcNameError},
		// A chain stops at its first false link.
		{"lambda r: r['a'] < r['b'] < (1 // (r['a'] - r['a']))", map[string]rows.Slot{"b": rows.I64(1)}, pyvalue.Bool(false), 0},
		// A bool equals its int, but is not it.
		{"lambda r: True == 1", nil, pyvalue.Bool(true), 0},
		{"lambda r: True is 1", nil, pyvalue.Bool(false), 0},
		{"lambda r: r['h'] == 1", map[string]rows.Slot{"h": rows.Bool(true)}, pyvalue.Bool(true), 0},
		// An operator inference rejects still evaluates its operands first.
		{"lambda r: (1 // r['a']) & 1.5", map[string]rows.Slot{"a": rows.I64(0)}, nil, pyvalue.ExcZeroDivisionError},
		{"lambda r: 1.5 & (1 // r['a'])", map[string]rows.Slot{"a": rows.I64(0)}, nil, pyvalue.ExcZeroDivisionError},
		{"lambda r: ~(1 / r['c'])", map[string]rows.Slot{"c": rows.F64(0)}, nil, pyvalue.ExcZeroDivisionError},
		{"lambda r: r['t'] - (1 // r['a'])", map[string]rows.Slot{"a": rows.I64(0)}, nil, pyvalue.ExcZeroDivisionError},
		{"lambda r: r['t'] < (1 // r['a'])", map[string]rows.Slot{"a": rows.I64(0)}, nil, pyvalue.ExcZeroDivisionError},
		{"lambda r: (1 // r['a']) & 1.5", nil, nil, pyvalue.ExcTypeError},
		// A negative shift count raises ValueError.
		{"lambda r: r['a'] << (r['b'] - 3)", nil, nil, pyvalue.ExcValueError},
		{"lambda r: r['a'] >> (r['b'] - 3)", nil, nil, pyvalue.ExcValueError},
	} {
		row := make(rows.Row, len(vecCols))
		for i, col := range vecCols {
			switch v, ok := c.cells[col.Name]; {
			case ok:
				row[i] = v
			case col.Type.Kind() == types.KindNull:
				row[i] = rows.Null()
			case col.Type.Unwrap().Kind() == types.KindStr:
				row[i] = rows.Str("x")
			case col.Type.Unwrap().Kind() == types.KindF64:
				row[i] = rows.F64(1.5)
			case col.Type.Unwrap().Kind() == types.KindBool:
				row[i] = rows.Bool(false)
			default:
				row[i] = rows.I64(2)
			}
		}
		check := func(tier string, got pyvalue.Value, ec ECode) {
			t.Helper()
			if ec != c.ec || (c.want != nil && (got == nil || got.Kind() != c.want.Kind() || !pyvalue.Equal(got, c.want))) {
				t.Errorf("%s %v: %s = %v (%v), want %v (%v)", c.src, c.cells, tier, got, ec, c.want, c.ec)
			}
		}
		fn, _ := pyast.ParseUDF(c.src)
		for _, spec := range []bool{true, false} {
			info, err := inference.TypeFunction(fn, []types.Type{rowType()}, gt, inference.Options{})
			if err != nil {
				t.Fatal(err)
			}
			u, err := Compile(info, vecGlobals, Options{Specialize: spec})
			if err != nil {
				t.Fatal(err)
			}
			v, ec := u.Call1(NewFrame(u.NumSlots()), rows.Tuple(row))
			check(fmt.Sprintf("row closure [spec=%v]", spec), v.Value(), ec)
		}
		arg := []pyvalue.Value{rows.DictRow(names, row)}
		v, err := ip.Call(fn, arg)
		check("tree-walker", v, pyvalue.KindOf(err))
		compiled, err := ip.Compile(fn)
		if err != nil {
			t.Fatal(err)
		}
		v, err = compiled.Call(ip, arg)
		check("interp.Compiled", v, pyvalue.KindOf(err))
	}
}
