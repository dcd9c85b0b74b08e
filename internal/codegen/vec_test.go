package codegen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// The differential suite: for random expressions of the vectorizable
// grammar over random batches, the vector program plus a replay of its
// bail rows through the row closure must equal the row closure alone —
// value for value (bit for bit on floats), exception for exception.

// vecCols is the test schema. k is an integer column whose sample range
// excludes zero (so dataflow elides zero checks under a guard the data
// then violates); e, g and s are Options; n is a column the sample typed
// Null (a KindNull vector, every cell None).
var vecCols = []types.Column{
	{Name: "a", Type: types.I64},
	{Name: "b", Type: types.I64},
	{Name: "c", Type: types.F64},
	{Name: "d", Type: types.F64},
	{Name: "e", Type: types.Option(types.I64)},
	{Name: "g", Type: types.Option(types.F64)},
	{Name: "h", Type: types.Bool},
	{Name: "k", Type: types.I64},
	{Name: "s", Type: types.Option(types.Str)},
	{Name: "t", Type: types.Str},
	{Name: "u", Type: types.Str},
	{Name: "n", Type: types.Null},
}

var vecGlobals = map[string]pyvalue.Value{"KI": pyvalue.Int(3), "KF": pyvalue.Float(0.25), "KB": pyvalue.Bool(true), "KS": pyvalue.Str("Sale")}

var (
	intPool   = []int64{0, 0, 1, -1, 2, -2, 3, 7, -7, 10, 24, 100, -100, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	floatPool = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 0.05, 0.06, 0.07, 2.5, -2.5, 1e18, 9007199254740993, 1e308, -1e308, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
)

// vecBatch is one random batch in both representations.
type vecBatch struct {
	cols []*colvec.Vec
	rows []rows.Row
}

// nullMode says which cells of a batch's Option columns are None.
type nullMode int

const (
	someNull nullMode = iota // a random quarter
	noneNull                 // none: the vectors are nullable but all valid
	allNull                  // every one
)

var nullModes = []nullMode{someNull, noneNull, allNull}

func randomBatch(rng *rand.Rand, n int, nulls nullMode) vecBatch {
	b := vecBatch{rows: make([]rows.Row, n)}
	for _, c := range vecCols {
		b.cols = append(b.cols, colvec.NewVec(c.Type))
	}
	for r := 0; r < n; r++ {
		row := make(rows.Row, len(vecCols))
		for c, col := range vecCols {
			var s rows.Slot
			switch {
			case col.Type.Kind() == types.KindNull:
				s = rows.Null()
			case col.Name == "k":
				s = rows.I64(int64(rng.Intn(12)) - 1) // sampled range is [1, 9]: -1, 0 and 10 break the guard
			case col.Type.Unwrap().Kind() == types.KindI64:
				s = rows.I64(intPool[rng.Intn(len(intPool))])
			case col.Type.Unwrap().Kind() == types.KindF64:
				s = rows.F64(floatPool[rng.Intn(len(floatPool))])
			case col.Type.Unwrap().Kind() == types.KindBool:
				s = rows.Bool(rng.Intn(2) == 0)
			default:
				s = rows.Str("x")
			}
			row[c] = appendCell(b.cols[c], s, col.Type.IsOption() && optNull(rng, nulls))
		}
		b.rows[r] = row
	}
	return b
}

// appendCell appends s to v, or — when null — a None cell that keeps s
// as its payload, the way a derived vector's null cells keep whatever
// was written there last. It returns the cell as the row path sees it.
func appendCell(v *colvec.Vec, s rows.Slot, null bool) rows.Slot {
	v.AppendSlot(s)
	if !null {
		return s
	}
	v.SetNull(v.Len() - 1)
	return rows.Null()
}

// optNull decides whether one Option cell is None.
func optNull(rng *rand.Rand, nulls nullMode) bool {
	return nulls == allNull || nulls == someNull && rng.Intn(4) == 0
}

// randomSel picks all rows, none, or a random ascending subset.
func randomSel(rng *rand.Rand, n int) []int32 {
	var sel []int32
	mode := rng.Intn(5)
	for r := 0; r < n; r++ {
		if mode == 0 || (mode > 1 && rng.Intn(3) > 0) {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// exprGen writes random expressions of the supported grammar (plus the
// occasional unsupported node, which must make the compiler decline).
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// op draws one of pyvalue's operators that keep accepts, so an operator
// added there is drawn too.
func (g *exprGen) op(keep func(pyvalue.Op) bool) pyvalue.Op {
	for {
		if op := pyvalue.Op(g.rng.Intn(int(pyvalue.NumOps))); keep(op) {
			return op
		}
	}
}

func (g *exprGen) num(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(8) {
		case 0:
			return g.pick("0", "1", "2", "3", "24", "-5", "1000000007")
		case 1:
			return g.pick("0.0", "0.05", "0.07", "1.5", "-2.25", "1e3")
		case 2:
			return g.pick("KI", "KF")
		default:
			return "r['" + g.pick("a", "b", "c", "d", "e", "g", "k", "k") + "']"
		}
	}
	switch g.rng.Intn(10) {
	case 0:
		// Mostly the minus the vector programs compute; one time in
		// three any unary operator, not and ~ over floats included.
		op := pyvalue.OpSub
		if g.rng.Intn(3) == 0 {
			op = g.op(pyvalue.Op.IsUnary)
		}
		return "(" + op.String() + " " + g.num(depth-1) + ")"
	case 1:
		return "(" + g.num(depth-1) + " if " + g.boolean(depth-1) + " else " + g.num(depth-1) + ")"
	case 2:
		return "(" + g.num(depth-1) + " if " + g.truthy(depth-1) + " else " + g.num(depth-1) + ")"
	case 3:
		// Any binary operator: ** and the bitwise ones over floats, and
		// shift counts around the word size and below zero.
		op, right := g.op(pyvalue.Op.IsBinary), g.num(depth-1)
		if (op == pyvalue.OpLShift || op == pyvalue.OpRShift) && g.rng.Intn(2) == 0 {
			right = g.pick("0", "1", "63", "64", "65", "-1", "(r['b'] - 3)")
		}
		return "(" + g.num(depth-1) + " " + op.String() + " " + right + ")"
	default:
		return "(" + g.num(depth-1) + " " + g.pick("+", "-", "*", "*", "/", "//", "%") + " " + g.num(depth-1) + ")"
	}
}

// truthy writes a truth test of an operand that may be None: the operand
// itself, or and/or over it, whose value is an Option but whose truth is
// a bool.
func (g *exprGen) truthy(depth int) string {
	switch g.rng.Intn(4) {
	case 0:
		return "(r['" + g.pick("e", "g", "n") + "'] and " + g.boolean(depth) + ")"
	case 1:
		return "(" + g.boolean(depth) + " or r['" + g.pick("e", "g", "n") + "'])"
	}
	return "r['" + g.pick("e", "g", "n", "s") + "']"
}

// eqOpt writes == or != with a side that may be None.
func (g *exprGen) eqOpt(depth int) string {
	op := " " + g.pick("==", "!=") + " "
	switch g.rng.Intn(3) {
	case 0:
		return "(r['s']" + op + g.pick("'x'", "''", "r['t']", "KS", "r['s']") + ")"
	case 1:
		return "(" + g.pick("'A'", "r['a']", "3.5", "r['h']") + op + "r['n'])"
	}
	return "(" + g.num(depth) + op + "r['" + g.pick("e", "g") + "'])"
}

func (g *exprGen) boolean(depth int) string {
	if depth <= 0 || g.rng.Intn(6) == 0 {
		return g.pick("r['h']", "r['h']", "True", "False", "KB",
			"(r['e'] is None)", "(r['g'] is not None)", "(r['s'] is None)", "(None is not r['s'])", "(r['a'] is None)",
			"(r['n'] is None)", "(r['n'] == 'A')", "(r['n'] != 'A')", "(not r['e'])", "(not r['s'])")
	}
	cmp := func() string {
		if g.rng.Intn(8) == 0 {
			return g.op(pyvalue.Op.IsCompare).String() // in and is too
		}
		return g.pick("<", "<=", ">", ">=", "==", "!=")
	}
	switch g.rng.Intn(12) {
	case 0:
		return "(not " + g.boolean(depth-1) + ")"
	case 1, 2:
		return "(" + g.boolean(depth-1) + " and " + g.boolean(depth-1) + ")"
	case 3:
		return "(" + g.boolean(depth-1) + " or " + g.boolean(depth-1) + ")"
	case 4:
		return "(" + g.boolean(depth-1) + " if " + g.boolean(depth-1) + " else " + g.boolean(depth-1) + ")"
	case 5:
		return "(" + g.num(depth-1) + " " + cmp() + " " + g.num(depth-1) + " " + cmp() + " " + g.num(depth-1) + ")"
	case 6:
		return "(" + g.boolean(depth-1) + " and " + g.boolean(depth-1) + " and " + g.boolean(depth-1) + ")"
	case 7:
		return "(not " + g.truthy(depth-1) + ")"
	case 8:
		return g.eqOpt(depth - 1)
	default:
		return "(" + g.num(depth-1) + " " + cmp() + " " + g.num(depth-1) + ")"
	}
}

// compileVecUDF compiles src against the test schema the way the engine
// does: typed, dataflow-analyzed (with sampled statistics when seeded),
// fully specialized.
func compileVecUDF(t testing.TB, src string, params []types.Type, seeded bool) *UDF {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	gt := map[string]types.Type{"KI": types.I64, "KF": types.F64, "KB": types.Bool, "KS": types.Str}
	info, err := inference.TypeFunction(fn, params, gt, inference.Options{})
	if err != nil {
		t.Fatalf("inference %q: %v", src, err)
	}
	opts := DefaultOptions()
	if len(params) == 1 {
		facts := make([]dataflow.ColFact, len(vecCols))
		for i, c := range vecCols {
			facts[i].Type = c.Type
			if seeded && c.Name == "k" {
				facts[i].Lo, facts[i].Hi, facts[i].HasRange = 1, 9, true
			}
		}
		opts.Flow = dataflow.Analyze(info, dataflow.Options{Columns: facts, NullFacts: true, Globals: vecGlobals})
	}
	u, err := Compile(info, vecGlobals, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return u
}

func rowType() types.Type { return types.Row(types.NewSchema(vecCols)) }

// f64bits is math.Float64bits with every NaN folded to one pattern: which
// operand's sign and payload a NaN ⊕ NaN instruction keeps is the Go
// compiler's choice of operand order (it differs under -race), on the row
// path as much as on the vector path.
func f64bits(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// sameValue compares a row-closure slot with a vector cell bit for bit.
func sameValue(kind types.Kind, v *colvec.Vec, r int, want rows.Slot) bool {
	if want.Tag == types.KindNull || v.IsNull(r) {
		return want.Tag == types.KindNull && v.IsNull(r)
	}
	if want.Tag != kind {
		return false
	}
	switch kind {
	case types.KindI64:
		return v.I[r] == want.I
	case types.KindF64:
		return f64bits(v.F[r]) == f64bits(want.F)
	case types.KindStr:
		return string(v.RawStr(r)) == want.S
	}
	return v.B[r] == want.B
}

// checkBail verifies Bail is an ascending subset of sel and returns it
// as a set.
func checkBail(t *testing.T, src string, st *VecState, sel []int32) map[int32]bool {
	t.Helper()
	bail := st.Bail()
	if !slices.IsSorted(bail) {
		t.Fatalf("%s: bail list not ascending: %v", src, bail)
	}
	set := map[int32]bool{}
	for _, r := range bail {
		if set[r] || !slices.Contains(sel, r) {
			t.Fatalf("%s: bail row %d duplicated or outside the selection", src, r)
		}
		set[r] = true
	}
	return set
}

// diffExpr runs u's vector program over the batch both ways and holds
// every unbailed row to the row closure; a row the closure raises on
// must have bailed.
func diffExpr(t *testing.T, src string, u *UDF, st *VecState, b vecBatch, sel []int32) (bailed int) {
	t.Helper()
	fr := NewFrame(u.NumSlots())
	n := len(b.rows)

	out := u.Vec.Filter(st, b.cols, 0, n, sel, make([]int32, 0, n))
	bail := checkBail(t, src, st, sel)
	if !slices.IsSorted(out) {
		t.Fatalf("%s: filter output not ascending: %v", src, out)
	}
	for _, r := range sel {
		want, ec := u.Call1(fr, rows.Tuple(b.rows[r]))
		in := slices.Contains(out, r)
		switch {
		case bail[r]:
			if in {
				t.Fatalf("%s: row %d both bailed and selected", src, r)
			}
		case ec != 0:
			t.Fatalf("%s: row %d raises %v on the row path but the filter kernel decided it (row %v)", src, r, ec, rows.RowToValues(b.rows[r]))
		case in != want.Truth():
			t.Fatalf("%s: row %d filter = %v, row path says %v (row %v)", src, r, in, want.Value(), rows.RowToValues(b.rows[r]))
		}
	}
	for _, r := range out {
		if !slices.Contains(sel, r) {
			t.Fatalf("%s: filter invented row %d", src, r)
		}
	}

	dst := colvec.NewVec(u.ReturnType())
	dst.Grow(n)
	u.Vec.Eval(st, b.cols, 0, n, sel, dst)
	bail = checkBail(t, src, st, sel)
	for _, r := range sel {
		want, ec := u.Call1(fr, rows.Tuple(b.rows[r]))
		switch {
		case bail[r]:
		case ec != 0:
			t.Fatalf("%s: row %d raises %v on the row path but the eval kernel computed it (row %v)", src, r, ec, rows.RowToValues(b.rows[r]))
		case !sameValue(u.Vec.Kind(), dst, int(r), want):
			t.Fatalf("%s: row %d = %v, row path says %v (row %v)", src, r, dst.Slot(int(r)).Value(), want.Value(), rows.RowToValues(b.rows[r]))
		}
	}
	return len(bail)
}

func TestVecExprDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	g := &exprGen{rng: rng}
	st := NewVecState()
	vectorized, declined, bailed := 0, 0, 0
	for i := 0; i < 1500; i++ {
		src := g.num(3)
		if i%2 == 0 {
			src = g.boolean(3)
		}
		src = "lambda r: " + src
		u := compileVecUDF(t, src, []types.Type{rowType()}, i%3 != 0)
		if u.Vec == nil {
			declined++
			continue
		}
		vectorized++
		for j, n := range []int{0, 1, 9, 130} {
			b := randomBatch(rng, n, nullModes[(i+j)%len(nullModes)])
			bailed += diffExpr(t, src, u, st, b, randomSel(rng, n))
		}
	}
	t.Logf("%d expressions vectorized, %d declined, %d rows bailed", vectorized, declined, bailed)
	if vectorized < 1000 {
		t.Fatalf("only %d of 1500 generated expressions vectorized; the generator or the compiler regressed", vectorized)
	}
	if bailed == 0 {
		t.Fatal("no row ever bailed: nulls, zero divisors and guard misses are not being exercised")
	}
}

// TestVecShortCircuit pins that the right side of and/or (and the
// untaken arm of a conditional) is never evaluated on the rows the left
// side already decided: it would raise there, yet nothing bails.
func TestVecShortCircuit(t *testing.T) {
	cases := []string{
		"lambda r: r['a'] != 0 and 100 // r['a'] > 1",
		"lambda r: r['a'] == 0 or 100 % r['a'] == 0",
		"lambda r: 0 < r['a'] <= 50 and r['c'] / r['a'] > 0.5",
		"lambda r: (100 // r['a'] if r['a'] != 0 else -1) > 3",
		"lambda r: r['e'] is not None and r['e'] + 1 > 0",
		"lambda r: r['e'] is None or r['e'] * 2 < 10",
		"lambda r: not (r['a'] == 0 or 7 // r['a'] > 0)",
		"lambda r: 1.0 / r['a'] if r['a'] != 0 else 0.0",
		"lambda r: r['g'] * 2.0 if r['g'] is not None else -1.0",
	}
	rng := rand.New(rand.NewSource(7))
	st := NewVecState()
	for _, src := range cases {
		u := compileVecUDF(t, src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized", src)
		}
		for i := 0; i < 20; i++ {
			b := randomBatch(rng, 200, someNull)
			if bailed := diffExpr(t, src, u, st, b, randomSel(rng, 200)); bailed != 0 {
				t.Fatalf("%s: %d rows bailed although the guarded operand protects every row", src, bailed)
			}
		}
	}
	// The unguarded spellings do raise — and must bail exactly there.
	for _, src := range []string{"lambda r: 100 // r['a'] > 1", "lambda r: r['e'] + 1 > 0", "lambda r: r['c'] % r['d']"} {
		u := compileVecUDF(t, src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized", src)
		}
		b := randomBatch(rng, 300, someNull)
		sel := make([]int32, 300)
		for i := range sel {
			sel[i] = int32(i)
		}
		if bailed := diffExpr(t, src, u, st, b, sel); bailed == 0 {
			t.Fatalf("%s: no row bailed over 300 random rows", src)
		}
		fr := NewFrame(u.NumSlots())
		u.Vec.Filter(st, b.cols, 0, 300, sel, nil)
		for _, r := range st.Bail() {
			if _, ec := u.Call1(fr, rows.Tuple(b.rows[r])); ec == 0 {
				t.Fatalf("%s: row %d bailed but the row path computes it", src, r)
			}
		}
	}
}

// TestVecDeclines lists bodies outside the grammar: the compiler must
// return no program rather than a wrong one.
func TestVecDeclines(t *testing.T) {
	for _, c := range []struct{ src, why string }{
		{"lambda r: r['a'] ** 2", "BinOp:**"},
		{"lambda r: r['a'] & 1", "BinOp:&"},
		{"lambda r: abs(r['a'])", "Call:abs"},
		{"lambda r: r['h'] + 1", "BinOp:+"},
		{"lambda r: r['a'] and r['b']", "BoolOp:and"},
		{"lambda r: (r['a'], r['b'])", "returns (i64,i64)"},
		{"lambda r: r['a'] if r['h'] else r['c']", "IfExpr"},
		{"lambda r: None", "returns null"},
		{"lambda r: re.search('x', r['t'])", "returns Option[match]"},
		{"lambda r: len(re.sub('x', 'y', r['t']))", "Call:re.sub"},
		{"lambda r: r['t'].split(',')[0]", "Subscript"},
		{"lambda r: len(r['t'].split(','))", "Call:.split"},
		{"lambda r: r['t'][::2]", "Slice"},
		{"lambda r: r['t'].replace('a', 'b', 1)", "Call:.replace"},
		{"lambda r: '%s!' % r['t']", "BinOp:%"},
		{"lambda r: '{:>4}'.format(r['a'])", "Call:.format"},
		{"lambda r: r['t'] * 2", "BinOp:*"},
		{"def f(r):\n    n = 0\n    for c in r['t']:\n        n += 1\n    return n", "For"},
		{"def f(r):\n    n = 0\n    while n < r['a']:\n        n += 1\n    return n", "While"},
		{"def f(r):\n    return len([c for c in r['t']])", "ListComp"},
		{"def f(r):\n    if r['h']:\n        p = 1\n    else:\n        p = 'one'\n    return r['a']", "local p type-unstable"},
		{"def f(r):\n    if r['h']:\n        p = 1\n    return p", "local p read before assignment"},
		{"def f(r):\n    if r['h']:\n        v = r['s']\n    else:\n        v = r['t']\n    return v", "local v Option-bound on one arm"},
		{"lambda r: r['s'] == r['n']", "Compare:=="},
		{"def f(r):\n    if r['h']:\n        return 1", "falls off the end"},
		{"def f(r):\n    a, b = r['a'], r['b']\n    return a + b", "assignment to a subscript or tuple"},
		{"def f(r):\n    r = 5\n    return r", "parameter r assigned"},
		{"def f(r):\n    len(r['t'])\n    return 1", "ExprStmt"},
	} {
		u := compileVecUDF(t, c.src, []types.Type{rowType()}, false)
		if u.Vec != nil {
			t.Errorf("%s: vectorized, but it is outside the supported grammar", c.src)
		} else if u.VecDecline != c.why {
			t.Errorf("%s: VecDecline = %q, want %q", c.src, u.VecDecline, c.why)
		}
	}
	opts := DefaultOptions()
	opts.Specialize = false
	fn, _ := pyast.ParseUDF("lambda r: r['a'] + 1")
	info, _ := inference.TypeFunction(fn, []types.Type{rowType()}, nil, inference.Options{})
	if u, err := Compile(info, nil, opts); err != nil || u.Vec != nil || u.VecDecline != "unspecialized" {
		t.Errorf("unspecialized compile: vec=%v why=%q err=%v; the ablation arm must stay row-at-a-time", u.Vec != nil, u.VecDecline, err)
	}
}

// TestVecOptionOperands runs bodies in which None is an ordinary value —
// of an Option column, of a local bound to one, or of the Null-typed
// column n: truth-tested, compared, identity-tested, returned — over
// batches with some, none and all of the Option cells None. None of them
// raises on any row, so each must vectorize, match the row closure and
// replay nothing.
func TestVecOptionOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	st := NewVecState()
	for _, src := range []string{
		"lambda r: r['s']",
		"lambda r: r['e']",
		"lambda r: r['g'] if r['h'] else None",
		"lambda r: 1 if r['g'] else 0",
		"lambda r: r['s'] == 'x'",
		"lambda r: r['e'] != r['a']",
		"lambda r: 2.5 == r['g']",
		"lambda r: r['n'] == 'A'",
		"lambda r: r['a'] != r['n']",
		"lambda r: r['a'] if r['e'] and r['h'] else -1",
		"lambda r: r['b'] if not r['s'] or r['h'] else 2",
		"lambda r: r['n'] is None and r['s'] is not None",
		// Flights' cleanCode, divertedUDF and filterDefunctFlights.
		"def f(t):\n    if t['n'] == 'A':\n        return 'carrier'\n    elif t['n'] == 'B':\n        return 'weather'\n    else:\n        return None",
		"def f(row):\n    diverted = row['h']\n    ccode = row['s']\n    if diverted:\n        return 'diverted'\n    else:\n        if ccode:\n            return ccode\n        else:\n            return 'None'",
		"def f(row):\n    year = row['a']\n    defunct = row['e']\n    if defunct:\n        return int(year) < int(defunct)\n    else:\n        return True",
		"def f(r):\n    v = r['s']\n    if v is None:\n        return 'none'\n    return v",
		"def f(r):\n    v = r['e']\n    w = r['n']\n    if v == 7 or w == 'A' or w:\n        return None\n    return v",
	} {
		u := compileVecUDF(t, src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized (%s)", src, u.VecDecline)
		}
		for _, nulls := range nullModes {
			b := randomBatch(rng, 200, nulls)
			if bailed := diffExpr(t, src, u, st, b, randomSel(rng, 200)); bailed != 0 {
				t.Fatalf("%s: %d rows replayed, but None is an ordinary value here", src, bailed)
			}
		}
	}
}

// TestVecScalarParam runs a bare-value UDF against a chosen column.
func TestVecScalarParam(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := NewVecState()
	b := randomBatch(rng, 257, someNull)
	sel := randomSel(rng, 257)
	for _, c := range []struct {
		src string
		col int
	}{
		{"lambda x: x * 2 + 1", 1},
		{"lambda x: x / 4.0 >= 0.5", 3},
		{"lambda x: x is not None and x > 0", 4},
		{"lambda x: -x if x < 0 else x", 2},
		{"lambda x: int(x) if x else 0", 5},
	} {
		u := compileVecUDF(t, c.src, []types.Type{vecCols[c.col].Type}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized", c.src)
		}
		fr := NewFrame(u.NumSlots())
		dst := colvec.NewVec(u.ReturnType())
		dst.Grow(257)
		u.Vec.Eval(st, b.cols, c.col, 257, sel, dst)
		bail := checkBail(t, c.src, st, sel)
		for _, r := range sel {
			want, ec := u.Call1(fr, b.rows[r][c.col])
			if bail[r] {
				continue
			}
			if ec != 0 || !sameValue(u.Vec.Kind(), dst, int(r), want) {
				t.Fatalf("%s: row %d = %v, row path says %v (ec %v)", c.src, r, dst.Slot(int(r)).Value(), want.Value(), ec)
			}
		}
	}
}

// foldBoth folds the batch through f with bail replay, and through the
// row closure alone; both accumulators must end bit-identical, and so
// must the exception codes met on the way.
func foldBoth(t *testing.T, src string, u *UDF, st *VecState, b vecBatch, sel []int32, init rows.Slot) {
	t.Helper()
	fr := NewFrame(u.NumSlots())
	var wantExc []ECode
	want := init
	for _, r := range sel {
		v, ec := u.Call2(fr, want, rows.Tuple(b.rows[r]))
		if ec != 0 {
			wantExc = append(wantExc, ec)
			continue
		}
		want = v
	}

	f := u.Fold
	var gotExc []ECode
	got := init
	fold := func(rs []int32) {
		if f.Kind() == types.KindF64 {
			got = rows.F64(f.FoldF64(st, got.F, rs))
		} else {
			got = rows.I64(f.FoldI64(st, got.I, rs))
		}
	}
	applies := f.Select(st, b.cols, 0, len(b.rows), sel)
	i := 0
	for _, r := range st.Bail() {
		j := i
		for j < len(applies) && applies[j] < r {
			j++
		}
		fold(applies[i:j])
		i = j
		if v, ec := u.Call2(fr, got, rows.Tuple(b.rows[r])); ec != 0 {
			gotExc = append(gotExc, ec)
		} else {
			got = v
		}
	}
	fold(applies[i:])

	if got.Tag != want.Tag || got.I != want.I || f64bits(got.F) != f64bits(want.F) {
		t.Fatalf("%s: vector fold = %v (%#x), row fold = %v (%#x)", src, got.Value(), math.Float64bits(got.F), want.Value(), math.Float64bits(want.F))
	}
	if !slices.Equal(gotExc, wantExc) {
		t.Fatalf("%s: vector fold raised %v, row fold raised %v", src, gotExc, wantExc)
	}
}

func TestVecFoldDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := &exprGen{rng: rng}
	st := NewVecState()
	matched := 0
	for i := 0; i < 600; i++ {
		term, cond := g.num(2), g.boolean(2)
		var body string
		switch i % 8 {
		case 0:
			body = "acc + " + term
		case 1:
			body = "acc + " + term + " if " + cond + " else acc"
		case 2:
			body = "acc if " + cond + " else acc * " + term
		case 3:
			body = "min(acc, " + term + ")"
		case 4:
			body = "max(acc, " + term + ") if " + cond + " else acc"
		case 5:
			body = "acc * " + term
		case 6:
			body = "acc - " + term
			if i%16 == 6 {
				body = term + " + acc"
			}
		default:
			body = "acc * " + term + " if " + cond + " else acc"
		}
		src := "lambda acc, r: " + body
		for _, init := range []rows.Slot{rows.F64(0.5), rows.I64(1)} {
			accT := types.F64
			if init.Tag == types.KindI64 {
				accT = types.I64
			}
			u := compileVecUDF(t, src, []types.Type{accT, rowType()}, false)
			// The engine only keeps an aggregate whose result is its
			// accumulator's type; anything else it re-types or runs boxed.
			if !types.Equal(u.ReturnType(), accT) || u.Fold == nil {
				continue
			}
			matched++
			for _, n := range []int{0, 1, 40, 500} {
				b := randomBatch(rng, n, someNull)
				foldBoth(t, src, u, st, b, randomSel(rng, n), init)
			}
		}
	}
	t.Logf("%d aggregate bodies folded", matched)
	if matched < 300 {
		t.Fatalf("only %d generated aggregates matched the fold table", matched)
	}
	for _, src := range []string{
		"lambda acc, r: acc + acc",
		"lambda acc, r: acc + r['a'] * acc",
		"lambda acc, r: r['a'] - acc",
		"lambda acc, r: acc + r['a'] if acc > 0 else acc",
		"lambda acc, r: acc / r['c']",
		"lambda acc, r: min(r['c'], acc)",
		"lambda acc, r: acc + r['c'] if r['h'] else 0.0",
	} {
		if u := compileVecUDF(t, src, []types.Type{types.F64, rowType()}, false); u.Fold != nil {
			t.Errorf("%s: matched the fold table", src)
		}
	}
}

// q6Agg is the TPC-H Q6 aggregate over the test schema's columns:
// a=shipdate, c=extendedprice, d=discount, b=quantity.
const q6Agg = "lambda acc, r: acc + r['c'] * r['d'] if (r['a'] >= 2 and r['a'] < 100 and 0.05 <= r['d'] <= 0.07 and r['b'] < 24) else acc"

// TestVecFoldSteadyStateAllocs pins that a warm vector fold allocates
// nothing per batch.
func TestVecFoldSteadyStateAllocs(t *testing.T) {
	u := compileVecUDF(t, q6Agg, []types.Type{types.F64, rowType()}, false)
	if u.Fold == nil {
		t.Fatal("Q6 aggregate did not match the fold table")
	}
	b := randomBatch(rand.New(rand.NewSource(3)), 4096, someNull)
	sel := make([]int32, 4096)
	for i := range sel {
		sel[i] = int32(i)
	}
	st := NewVecState()
	acc := 0.0
	step := func() { acc = u.Fold.FoldF64(st, acc, u.Fold.Select(st, b.cols, 0, 4096, sel)) }
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state vector fold allocates %v times per batch, want 0", allocs)
	}
}

var sinkF64 float64

// BenchmarkVecFoldKernel is one warm Q6-shaped vector fold over a full
// batch, outside the engine.
func BenchmarkVecFoldKernel(b *testing.B) {
	u := compileVecUDF(b, q6Agg, []types.Type{types.F64, rowType()}, false)
	batch := randomBatch(rand.New(rand.NewSource(3)), 4096, someNull)
	sel := make([]int32, 4096)
	for i := range sel {
		sel[i] = int32(i)
	}
	st := NewVecState()
	acc := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = u.Fold.FoldF64(st, acc, u.Fold.Select(st, batch.cols, 0, 4096, sel))
	}
	sinkF64 = acc
}

// BenchmarkVecOptionKernel runs two of flights' sparse-null UDFs over a
// 4096-row batch whose Option columns are 90% None: the delay columns'
// `int(x) if x else 0` over an Option[f64], and divertedUDF, which
// truth-tests and returns an Option[str] local. Each runs as a vector
// program (rows it marks replayed through the row closure) and, side by
// side, through the row closure alone, one row read out of the columns
// at a time.
func BenchmarkVecOptionKernel(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(3))
	batch := randomBatch(rng, n, noneNull)
	for c, col := range vecCols {
		for r := 0; col.Type.IsOption() && r < n; r++ {
			if rng.Intn(10) > 0 {
				batch.cols[c].SetNull(r)
				batch.rows[r][c] = rows.Null()
			}
		}
	}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	cols := &colvec.Batch{Cols: batch.cols, N: n}
	const g = 5 // the Option[f64] column
	for _, c := range []struct {
		name, src string
		param     types.Type
	}{
		{"intIfElse", "lambda x: int(x) if x else 0", vecCols[g].Type},
		{"diverted", "def f(row):\n    diverted = row['h']\n    ccode = row['s']\n    if diverted:\n        return 'diverted'\n    else:\n        if ccode:\n            return ccode\n        else:\n            return 'None'", rowType()},
	} {
		u := compileVecUDF(b, c.src, []types.Type{c.param}, false)
		if u.Vec == nil {
			b.Fatalf("%s: not vectorized (%s)", c.src, u.VecDecline)
		}
		scalar := c.param.Kind() != types.KindRow
		fr := NewFrame(u.NumSlots())
		dst := colvec.NewVec(u.ReturnType())
		reset := func() {
			dst.Reset()
			dst.Grow(n)
		}
		buf := make(rows.Row, len(vecCols))
		// call runs row r through the row closure and writes what it
		// returns; a row that raises leaves the normal path unwritten.
		call := func(r int) {
			arg := cols.Slot(r, g)
			if !scalar {
				arg = rows.Tuple(cols.ReadRow(r, buf))
			}
			if v, ec := u.Call1(fr, arg); ec == 0 {
				dst.Set(r, v)
			}
		}
		b.Run(c.name+"/vec", func(b *testing.B) {
			st := NewVecState()
			for i := 0; i < b.N; i++ {
				reset()
				u.Vec.Eval(st, batch.cols, g, n, sel, dst)
				for _, r := range st.Bail() {
					call(int(r))
				}
			}
		})
		b.Run(c.name+"/row", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				for r := 0; r < n; r++ {
					call(r)
				}
			}
		})
	}
}
