package codegen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// The string half of the differential suite: random statement-bodied
// string UDFs — nested if/elif/else, reassigned locals, early returns,
// every string operator of the grammar — over batches of awkward cells
// (empty, padded, non-ASCII, invalid UTF-8, unparsable numbers, nulls,
// guard-violating rows) under random selections. As in vec_test.go, the
// vector program plus a replay of its bail rows must equal the row
// closure alone; and a warm program allocates nothing.

// strPool is what a string cell may hold.
var strPool = []string{
	"", " ", "x", "abc", "ABC", "Hello World", "  padded\t ", "3 bds , 2 ba , 1,234 sqft", "House For Sale - 3 bed",
	"12", "-7", " 42 ", "1_000", "+5", "12a", "$1,234", "99999999999999999999", "9223372036854775808", "-9223372036854775808",
	"ÄÖü straße", "naïve,café", "日本語", "\xff\xfe", "a\x80b", "a,b,,c", "SALE", "sale,rent", ",", ",,", "ba ,", "０１",
}

// stmtGen writes random def bodies. Locals carry a kind prefix (s0 is a
// str, n1 an int, o2 bound to the Option column s); scope lists the ones
// definitely assigned.
type stmtGen struct {
	exprGen
	nlocals int
	sb      strings.Builder
}

func (g *stmtGen) strLit() string {
	return g.pick("''", "' '", "','", "'a'", "'ba ,'", "'x'", "'Sale'", "'sale'", "', '", "'é'", "'12'", "KS")
}

func (g *stmtGen) localOf(scope []string, kind byte) (string, bool) {
	var have []string
	for _, v := range scope {
		if v[0] == kind {
			have = append(have, v)
		}
	}
	if len(have) == 0 {
		return "", false
	}
	return have[g.rng.Intn(len(have))], true
}

func (g *stmtGen) str(depth int, scope []string) string {
	if depth <= 0 || g.rng.Intn(5) == 0 {
		if v, ok := g.localOf(scope, 's'); ok && g.rng.Intn(2) == 0 {
			return v
		}
		if v, ok := g.localOf(scope, 'o'); ok && g.rng.Intn(3) == 0 {
			return v
		}
		return g.pick("r['t']", "r['t']", "r['t']", "r['u']", "r['u']", "r['u']", g.strLit(), g.strLit(), g.strLit(), "r['s']")
	}
	s := func() string { return g.str(depth-1, scope) }
	n := func() string { return g.int(depth-1, scope) }
	switch g.rng.Intn(14) {
	case 0:
		return s() + ".lower()"
	case 1:
		return s() + ".upper()"
	case 2:
		return s() + "." + g.pick("strip", "lstrip", "rstrip") + "()"
	case 3:
		return s() + "." + g.pick("strip", "lstrip", "rstrip") + "(" + g.pick("' '", "', '", "'$,'", "'xé'", s()) + ")"
	case 4:
		return s() + ".replace(" + g.pick("','", "' '", "'a'", "''", s()) + ", " + g.strLit() + ")"
	case 5:
		return s() + "[" + n() + "]"
	case 6:
		return s() + "[" + g.pick(n()+":"+n(), ":"+n(), n()+":", ":") + "]"
	case 7, 8:
		return "(" + s() + " + " + s() + ")"
	case 9:
		return "(" + g.pick("'%05d'", "'%d'", "'%-4d|'", "'z%+dz'") + " % " + n() + ")"
	case 10:
		return "(" + g.pick("'%d-%02d'", "'%3d%%%d'") + " % (" + n() + ", " + n() + "))"
	case 11:
		return g.pick("'{:02}:{:02}'", "'{}/{}'", "'{1}{0:03d}'") + ".format(" + n() + ", " + n() + ")"
	default:
		return "(" + s() + " if " + g.cond(depth-1, scope) + " else " + s() + ")"
	}
}

func (g *stmtGen) int(depth int, scope []string) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		if v, ok := g.localOf(scope, 'n'); ok && g.rng.Intn(2) == 0 {
			return v
		}
		return g.pick("0", "1", "2", "-1", "5", "r['a']", "r['a']", "r['k']", "r['k']", "KI", "0", "3", "r['e']")
	}
	s := func() string { return g.str(depth-1, scope) }
	n := func() string { return g.int(depth-1, scope) }
	switch g.rng.Intn(10) {
	case 0, 1:
		return "len(" + s() + ")"
	case 2, 3:
		return s() + "." + g.pick("find", "find", "rfind", "rfind", "index", "rindex") + "(" + g.pick(g.strLit(), s()) + ")"
	case 4, 5:
		return "int(" + s() + ")"
	case 6:
		return "int(" + g.pick("r['c']", "r['d']") + ")"
	case 7:
		return "(" + n() + " % 7)"
	default:
		return "(" + n() + " " + g.pick("+", "-", "*") + " " + n() + ")"
	}
}

func (g *stmtGen) cond(depth int, scope []string) string {
	if v, ok := g.localOf(scope, 'o'); ok && g.rng.Intn(4) == 0 {
		return g.optCond(v, depth, scope)
	}
	if depth <= 0 || g.rng.Intn(6) == 0 {
		return g.pick("r['h']", "(r['s'] is None)", "(r['s'] is not None)", "True", "(not r['s'])", "(r['n'] == 'A')", "(r['n'] is None)")
	}
	s := func() string { return g.str(depth-1, scope) }
	n := func() string { return g.int(depth-1, scope) }
	switch g.rng.Intn(9) {
	case 0, 1:
		return "(" + s() + " " + g.pick("==", "!=", "<", "<=", ">", ">=") + " " + s() + ")"
	case 2, 3:
		return "(" + g.pick(g.strLit(), s()) + " " + g.pick("in", "in", "not in") + " " + s() + ")"
	case 4:
		return "(" + n() + " " + g.pick("<", "<=", ">", ">=", "==", "!=") + " " + n() + ")"
	case 5:
		return "(" + g.cond(depth-1, scope) + " " + g.pick("and", "or") + " " + g.cond(depth-1, scope) + ")"
	case 6:
		return "(not " + g.cond(depth-1, scope) + ")"
	case 7:
		return "(" + s() + " < " + s() + " <= " + s() + ")"
	default:
		return "(len(" + s() + ") > " + n() + ")"
	}
}

// optCond writes a bool in which None is an ordinary value of the Option
// local v: its truth, an identity test, == or !=.
func (g *stmtGen) optCond(v string, depth int, scope []string) string {
	switch g.rng.Intn(4) {
	case 0:
		return "(" + v + g.pick(" is None)", " is not None)")
	case 1:
		return "(" + v + " " + g.pick("==", "!=") + " " + g.pick(g.strLit(), g.str(depth-1, scope)) + ")"
	case 2:
		return "(not (" + v + " and " + g.str(depth-1, scope) + "))"
	}
	return "(not " + v + ")"
}

// test writes the condition of an if or elif: a bool, or now and then
// the bare truth of an Option column or local.
func (g *stmtGen) test(depth int, scope []string) string {
	if g.rng.Intn(5) > 0 {
		return g.cond(depth, scope)
	}
	if v, ok := g.localOf(scope, 'o'); ok && g.rng.Intn(2) == 0 {
		return v
	}
	return g.pick("r['s']", "r['e']", "r['n']")
}

// value writes an expression of the kind ('s', 'n' or 'b').
func (g *stmtGen) value(kind byte, depth int, scope []string) string {
	switch kind {
	case 's':
		return g.str(depth, scope)
	case 'n':
		return g.int(depth, scope)
	}
	return g.cond(depth, scope)
}

func (g *stmtGen) line(indent int, format string, args ...any) {
	g.sb.WriteString(strings.Repeat("    ", indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// block writes up to n statements at the indent and returns the scope
// after them; returned reports that every path through it returned.
func (g *stmtGen) block(indent, n, depth int, ret byte, optional bool, scope []string) (after []string, returned bool) {
	for i := 0; i < n; i++ {
		switch c := g.rng.Intn(10); {
		case c < 4: // assignment, new local or reassignment
			kind := byte("snso"[g.rng.Intn(4)])
			v, ok := g.localOf(scope, kind)
			if !ok || g.rng.Intn(2) == 0 {
				v = fmt.Sprintf("%c%d", kind, g.nlocals)
				g.nlocals++
			}
			rhs := "r['s']"
			if kind != 'o' {
				rhs = g.value(kind, 2, scope)
			}
			g.line(indent, "%s = %s", v, rhs)
			if !slices.Contains(scope, v) {
				scope = append(slices.Clone(scope), v)
			}
		case c < 5: // augmented assignment
			if v, ok := g.localOf(scope, byte("sn"[g.rng.Intn(2)])); ok {
				g.line(indent, "%s += %s", v, g.value(v[0], 1, scope))
			} else {
				g.line(indent, "pass")
			}
		case c < 8 && depth > 0: // if / elif / else
			g.line(indent, "if %s:", g.test(2, scope))
			tScope, tRet := g.block(indent+1, 1+g.rng.Intn(2), depth-1, ret, optional, scope)
			fScope, fRet := scope, false
			switch g.rng.Intn(3) {
			case 0:
				g.line(indent, "elif %s:", g.test(1, scope))
				eScope, eRet := g.block(indent+1, 1, depth-1, ret, optional, scope)
				g.line(indent, "else:")
				fScope, fRet = g.block(indent+1, 1, depth-1, ret, optional, scope)
				fScope, fRet = intersect(eScope, fScope, eRet, fRet), eRet && fRet
			case 1:
				g.line(indent, "else:")
				fScope, fRet = g.block(indent+1, 1+g.rng.Intn(2), depth-1, ret, optional, scope)
			}
			if tRet && fRet {
				return scope, true
			}
			scope = intersect(tScope, fScope, tRet, fRet)
		case c < 9: // early return
			if optional && g.rng.Intn(3) == 0 {
				g.line(indent, "return None")
			} else {
				g.line(indent, "return %s", g.value(ret, 2, scope))
			}
			return scope, true
		default:
			g.line(indent, "pass")
		}
	}
	return scope, false
}

// intersect is the scope after an if: what both arms assigned, or all of
// the other arm's when one returned.
func intersect(a, b []string, aRet, bRet bool) []string {
	switch {
	case aRet:
		return b
	case bRet:
		return a
	}
	var out []string
	for _, v := range a {
		if slices.Contains(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// udf writes one def returning the kind; optional bodies also return None
// on some paths, and a quarter of them behind a test no row passes, so
// that every row returns None.
func (g *stmtGen) udf(ret byte, optional bool) string {
	g.sb.Reset()
	g.nlocals = 0
	g.line(0, "def f(r):")
	indent := 1
	allNone := optional && g.rng.Intn(4) == 0
	if allNone {
		g.line(1, "if %s:", g.pick("r['n'] == 'A'", "r['n'] is not None", "r['t'] != r['t']"))
		indent = 2
	}
	scope, returned := g.block(indent, 2+g.rng.Intn(4), 2, ret, optional, nil)
	if !returned {
		g.line(indent, "return %s", g.value(ret, 2, scope))
	}
	if allNone {
		g.line(1, "return None")
	}
	return g.sb.String()
}

// randomStrBatch is randomBatch with the string columns drawn from
// strPool.
func randomStrBatch(rng *rand.Rand, n int, nulls nullMode) vecBatch {
	b := randomBatch(rng, n, nulls)
	for c, col := range vecCols {
		if col.Type.Unwrap().Kind() != types.KindStr {
			continue
		}
		b.cols[c] = colvec.NewVec(col.Type)
		for r := 0; r < n; r++ {
			s := rows.Str(strPool[rng.Intn(len(strPool))])
			b.rows[r][c] = appendCell(b.cols[c], s, col.Type.IsOption() && optNull(rng, nulls))
		}
	}
	return b
}

func TestVecStmtDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	g := &stmtGen{exprGen: exprGen{rng: rng}}
	st := NewVecState()
	vectorized, bailed, steady := 0, 0, 0
	declined := map[string]int{}
	const n = 1200
	for i := 0; i < n; i++ {
		src := g.udf("snb"[i%3], i%4 == 0)
		u := compileVecUDF(t, src, []types.Type{rowType()}, i%5 != 0)
		if u.Vec == nil {
			declined[u.VecDecline]++
			continue
		}
		vectorized++
		for j, rowsN := range []int{0, 1, 9, 130} {
			b := randomStrBatch(rng, rowsN, nullModes[(i+j)%len(nullModes)])
			sel := randomSel(rng, rowsN)
			bailed += diffExpr(t, src, u, st, b, sel)
			if rowsN != 130 || i%10 != 0 {
				continue
			}
			steady++
			dst := colvec.NewVec(u.ReturnType())
			eval := func() {
				dst.Reset()
				dst.Grow(rowsN)
				u.Vec.Eval(st, b.cols, 0, rowsN, sel, dst)
			}
			eval()
			if allocs := testing.AllocsPerRun(5, eval); allocs != 0 {
				t.Fatalf("%s: a warm Eval allocates %v times per batch, want 0", src, allocs)
			}
			out := make([]int32, 0, rowsN)
			filter := func() { out = u.Vec.Filter(st, b.cols, 0, rowsN, sel, out[:0]) }
			filter()
			if allocs := testing.AllocsPerRun(5, filter); allocs != 0 {
				t.Fatalf("%s: a warm Filter allocates %v times per batch, want 0", src, allocs)
			}
		}
	}
	t.Logf("%d bodies vectorized (%d allocation-checked), %d rows bailed; declined: %v", vectorized, steady, bailed, declined)
	if vectorized < n*3/4 {
		t.Fatalf("only %d of %d generated bodies vectorized; the generator or the compiler regressed", vectorized, n)
	}
	if bailed == 0 || steady == 0 {
		t.Fatal("no row ever bailed, or no program was allocation-checked")
	}
	for why := range declined {
		// The generator stays inside the grammar except where an Option
		// column's type spreads: across an if's merge, into a conditional's
		// arm, a format argument or the result.
		if !strings.HasPrefix(why, "local ") && !strings.HasPrefix(why, "returns ") &&
			!slices.Contains([]string{"IfExpr", "BinOp:%", "Call:.format"}, why) {
			t.Errorf("generated body declined for %q", why)
		}
	}
}

// TestVecStrBailExact pins that the string kernels mark exactly the rows
// the row closure raises on — no clean row is sent to replay — and that
// the replayed code is the closure's.
func TestVecStrBailExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := NewVecState()
	for _, src := range []string{
		"lambda r: int(r['t'])",
		"lambda r: r['t'][2]",
		"lambda r: r['t'][r['k']]",
		"lambda r: r['t'].index(',')",
		"lambda r: r['u'].rindex('a') + 1",
		"lambda r: r['s'].upper() + r['u'][1:].lower()",
		"lambda r: '%05d' % int(r['t'])",
		"def f(r):\n    v = r['t']\n    i = v.find(',')\n    if i < 0:\n        i = len(v)\n    return int(v[:i])",
	} {
		u := compileVecUDF(t, src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized (%s)", src, u.VecDecline)
		}
		b := randomStrBatch(rng, 400, someNull)
		sel := make([]int32, 400)
		for i := range sel {
			sel[i] = int32(i)
		}
		if diffExpr(t, src, u, st, b, sel) == 0 {
			t.Fatalf("%s: no row bailed over 400 random rows", src)
		}
		fr := NewFrame(u.NumSlots())
		dst := colvec.NewVec(u.ReturnType())
		dst.Grow(400)
		u.Vec.Eval(st, b.cols, 0, 400, sel, dst)
		for _, r := range st.Bail() {
			if _, ec := u.Call1(fr, rows.Tuple(b.rows[r])); ec == 0 {
				t.Fatalf("%s: row %d (%q, %q) bailed but the row path computes it", src, r, b.rows[r][9].S, b.rows[r][10].S)
			}
		}
	}
}

// TestVecZillowShapes runs the paper's Zillow UDF shapes — the bodies the
// string grammar exists for — over the awkward pool.
func TestVecZillowShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st := NewVecState()
	for _, src := range []string{
		"def extractBd(x):\n    val = x['t']\n    max_idx = val.find(' bd')\n    if max_idx < 0:\n        max_idx = len(val)\n    s = val[:max_idx]\n    split_idx = s.rfind(',')\n    if split_idx < 0:\n        split_idx = 0\n    else:\n        split_idx += 2\n    r = s[split_idx:]\n    return int(r)",
		"def extractSqft(x):\n    val = x['t']\n    max_idx = val.find(' sqft')\n    if max_idx < 0:\n        max_idx = len(val)\n    s = val[:max_idx]\n    split_idx = s.rfind('ba ,')\n    if split_idx < 0:\n        split_idx = 0\n    else:\n        split_idx += 5\n    r = s[split_idx:]\n    r = r.replace(',', '')\n    return int(r)",
		"def extractOffer(x):\n    offer = x['t'].lower()\n    if 'sale' in offer:\n        return 'sale'\n    if 'rent' in offer:\n        return 'rent'\n    if 'sold' in offer:\n        return 'sold'\n    if 'foreclose' in offer.lower():\n        return 'foreclosed'\n    return offer",
		"def extractType(x):\n    t = x['t'].lower()\n    type = 'unknown'\n    if 'condo' in t or 'apartment' in t:\n        type = 'condo'\n    if 'house' in t:\n        type = 'house'\n    return type",
		"def extractPrice(x):\n    price = x['t']\n    p = 0\n    if x['u'] == 'sold':\n        val = x['t']\n        s = val[val.find('Price/sqft:') + len('Price/sqft:') + 1:]\n        r = s[s.find('$')+1:s.find(', ') - 1]\n        price_per_sqft = int(r)\n        p = price_per_sqft * x['a']\n    elif x['u'] == 'rent':\n        max_idx = price.rfind('/')\n        p = int(price[1:max_idx].replace(',', ''))\n    else:\n        p = int(price[1:].replace(',', ''))\n    return p",
		"lambda x: x['t'] == 'house'",
		"lambda x: '%05d' % int(x['t'])",
		"lambda x: x['t'][0].upper() + x['t'][1:].lower()",
		"lambda x: x['t'][:x['t'].rfind(',')].strip()",
		"lambda x: '{:02}:{:02}'.format(int(x['a'] / 100), x['a'] % 100) if x['a'] else None",
		"lambda x: 0 if x['t'] == '-' else int(x['t'])",
	} {
		u := compileVecUDF(t, src, []types.Type{rowType()}, false)
		if u.Vec == nil {
			t.Fatalf("%s: not vectorized (%s)", src, u.VecDecline)
		}
		for i := 0; i < 10; i++ {
			b := randomStrBatch(rng, 300, someNull)
			diffExpr(t, src, u, st, b, randomSel(rng, 300))
		}
	}
}

// ---- the scalar helpers against their stdlib definitions -----------------

func TestAppendCaseFoldMatchesStdlib(t *testing.T) {
	for _, s := range append(strPool, "İstanbul", "ǅ", "ß", "\u0130\xffa", strings.Repeat("aB", 40)) {
		for _, upper := range []bool{false, true} {
			want := strings.ToLower(s)
			if upper {
				want = strings.ToUpper(s)
			}
			out, alias := appendCaseFold([]byte("pre"), s, upper)
			got := alias
			if len(out) > 3 {
				got = string(out[3:])
			}
			if got != want {
				t.Errorf("appendCaseFold(%q, upper=%v) = %q, stdlib says %q", s, upper, got, want)
			}
		}
	}
}

func FuzzVecStrFind(f *testing.F) {
	f.Add("3 bds , 2 ba", " bd", "x")
	f.Add("a,b,,c", ",", "")
	f.Add("日本語\xff", "語", "\xff")
	f.Fuzz(func(t *testing.T, s, sub, other string) {
		cells := []string{s, other, sub, s + sub, ""}
		col := colvec.NewVec(types.Str)
		for _, c := range cells {
			col.AppendStr(c)
		}
		sel := []int32{0, 1, 2, 3, 4}
		st := NewVecState()
		st.mark = make([]bool, len(cells))
		arg := strArg{off: col.Off, slen: col.SLen, bytes: col.Bytes}
		for _, last := range []bool{false, true} {
			out := make([]int64, len(cells))
			vecStrFind(out, arg, strArg{c: sub}, last, true, sel, st)
			for r, c := range cells {
				want := int64(strings.Index(c, sub))
				if last {
					want = int64(strings.LastIndex(c, sub))
				}
				if out[r] != want || st.mark[r] != (want < 0) {
					t.Fatalf("find(%q, %q, last=%v) = %d (marked %v), want %d", c, sub, last, out[r], st.mark[r], want)
				}
				st.mark[r] = false
			}
		}
		// The producers agree with the stdlib on the same cells.
		for _, c := range cells {
			for _, upper := range []bool{false, true} {
				want := strings.ToLower(c)
				if upper {
					want = strings.ToUpper(c)
				}
				out, alias := appendCaseFold(nil, c, upper)
				if got := string(out); (len(out) > 0 && got != want) || (len(out) == 0 && alias != want) {
					t.Fatalf("appendCaseFold(%q, upper=%v) = %q/%q, stdlib says %q", c, upper, got, alias, want)
				}
			}
			if sub != "" {
				out, alias := appendReplace(nil, c, sub, other)
				if want := strings.ReplaceAll(c, sub, other); (len(out) > 0 && string(out) != want) || (len(out) == 0 && alias != want) {
					t.Fatalf("appendReplace(%q, %q, %q) = %q/%q, stdlib says %q", c, sub, other, out, alias, want)
				}
			}
		}
	})
}

// parseIntReference is int(str) as the row path computed it before the
// parse went allocation-free: strip, drop underscores, strconv-like scan.
func parseIntReference(s string) (int64, bool) {
	t := strings.ReplaceAll(strings.TrimSpace(s), "_", "")
	neg := strings.HasPrefix(t, "-")
	if neg || strings.HasPrefix(t, "+") {
		t = t[1:]
	}
	if t == "" {
		return 0, false
	}
	var n uint64
	for _, c := range []byte(t) {
		if c < '0' || c > '9' || n > (1<<63)/10 {
			return 0, false
		}
		if n = n*10 + uint64(c-'0'); n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), n != 1<<63
}

func FuzzVecIntParse(f *testing.F) {
	for _, s := range strPool {
		f.Add(s)
	}
	f.Add("-_5")
	f.Add("_")
	f.Add("+-1")
	f.Fuzz(func(t *testing.T, s string) {
		want, ok := parseIntReference(s)
		got, ec := parseIntPython(s)
		if (ec == 0) != ok || (ok && got != want) {
			t.Fatalf("parseIntPython(%q) = %d, %v; reference says %d, %v", s, got, ec, want, ok)
		}
		if ec != 0 && ec != pyvalue.ExcValueError {
			t.Fatalf("parseIntPython(%q) raises %v, want ValueError", s, ec)
		}
		col := colvec.NewVec(types.Str)
		col.AppendStr("pad")
		col.AppendStr(s)
		st := NewVecState()
		st.mark = make([]bool, 2)
		out := make([]int64, 2)
		vecStrToInt(out, strArg{off: col.Off, slen: col.SLen, bytes: col.Bytes}, []int32{1}, st)
		if st.mark[1] != !ok || (ok && out[1] != want) {
			t.Fatalf("vecStrToInt(%q) = %d (marked %v); reference says %d, %v", s, out[1], st.mark[1], want, ok)
		}
	})
}
