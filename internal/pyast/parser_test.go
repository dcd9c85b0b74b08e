package pyast

import (
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/pyvalue"
)

func mustParseUDF(t *testing.T, src string) *Function {
	t.Helper()
	fn, err := ParseUDF(src)
	if err != nil {
		t.Fatalf("ParseUDF(%q): %v", src, err)
	}
	return fn
}

func TestParseLambdaSimple(t *testing.T) {
	fn := mustParseUDF(t, "lambda m: m * 1.609")
	if len(fn.Params) != 1 || fn.Params[0] != "m" {
		t.Fatalf("params = %v", fn.Params)
	}
	if len(fn.Body) != 1 {
		t.Fatalf("body = %v", fn.Body)
	}
	ret, ok := fn.Body[0].(*Return)
	if !ok {
		t.Fatalf("body[0] = %T", fn.Body[0])
	}
	bin, ok := ret.X.(*BinOp)
	if !ok || bin.Op != pyvalue.OpMul {
		t.Fatalf("ret.X = %s", Dump(ret.X))
	}
}

func TestParseLambdaMultiParam(t *testing.T) {
	fn := mustParseUDF(t, "lambda acc, r: acc + r['col']")
	if len(fn.Params) != 2 {
		t.Fatalf("params = %v", fn.Params)
	}
}

func TestParseTernaryAndNullCheck(t *testing.T) {
	fn := mustParseUDF(t, "lambda m: m * 1.609 if m else 0.0")
	ret := fn.Body[0].(*Return)
	ife, ok := ret.X.(*IfExpr)
	if !ok {
		t.Fatalf("ret.X = %s", Dump(ret.X))
	}
	if _, ok := ife.Cond.(*Name); !ok {
		t.Fatalf("cond = %s", Dump(ife.Cond))
	}
}

func TestParseChainedComparison(t *testing.T) {
	fn := mustParseUDF(t, "lambda x: 100000 < x['price'] <= 2e7")
	ret := fn.Body[0].(*Return)
	cmp, ok := ret.X.(*Compare)
	if !ok || len(cmp.Ops) != 2 {
		t.Fatalf("ret.X = %s", Dump(ret.X))
	}
	if cmp.Ops[0] != pyvalue.OpLt || cmp.Ops[1] != pyvalue.OpLe {
		t.Fatalf("ops = %v", cmp.Ops)
	}
}

func TestParseDefWithControlFlow(t *testing.T) {
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
	fn := mustParseUDF(t, src)
	if fn.Name != "extractBd" {
		t.Fatalf("name = %q", fn.Name)
	}
	if got := len(fn.Body); got != 8 {
		t.Fatalf("len(body) = %d, want 8", got)
	}
	if _, ok := fn.Body[2].(*If); !ok {
		t.Fatalf("body[2] = %T", fn.Body[2])
	}
	// The else branch holds an augmented assignment.
	ifs := fn.Body[5].(*If)
	if len(ifs.Else) != 1 {
		t.Fatalf("else = %v", ifs.Else)
	}
	if _, ok := ifs.Else[0].(*AugAssign); !ok {
		t.Fatalf("else[0] = %T", ifs.Else[0])
	}
}

func TestParseElifChain(t *testing.T) {
	src := `def cleanCode(t):
    if t["CancellationCode"] == 'A':
        return 'carrier'
    elif t["CancellationCode"] == 'B':
        return 'weather'
    elif t["CancellationCode"] == 'C':
        return 'national air system'
    else:
        return None
`
	fn := mustParseUDF(t, src)
	top, ok := fn.Body[0].(*If)
	if !ok {
		t.Fatalf("body[0] = %T", fn.Body[0])
	}
	lvl2, ok := top.Else[0].(*If)
	if !ok {
		t.Fatalf("elif did not nest: %T", top.Else[0])
	}
	lvl3, ok := lvl2.Else[0].(*If)
	if !ok {
		t.Fatalf("second elif did not nest: %T", lvl2.Else[0])
	}
	if len(lvl3.Else) != 1 {
		t.Fatalf("final else missing")
	}
}

func TestParseListComprehension(t *testing.T) {
	fn := mustParseUDF(t, "lambda x: ''.join([random_choice(LETTERS) for t in range(10)])")
	ret := fn.Body[0].(*Return)
	call := ret.X.(*Call)
	lc, ok := call.Args[0].(*ListComp)
	if !ok {
		t.Fatalf("arg = %s", Dump(call.Args[0]))
	}
	if lc.Var != "t" {
		t.Fatalf("var = %q", lc.Var)
	}
}

func TestParseDictLiteralReturn(t *testing.T) {
	src := `def parse(x):
    return {"ip": x, "code": 200}
`
	fn := mustParseUDF(t, src)
	ret := fn.Body[0].(*Return)
	d, ok := ret.X.(*DictLit)
	if !ok || len(d.Keys) != 2 {
		t.Fatalf("ret = %s", Dump(ret.X))
	}
}

func TestParseSlices(t *testing.T) {
	for _, src := range []string{
		"lambda s: s[1:]",
		"lambda s: s[:-1]",
		"lambda s: s[1:-1]",
		"lambda s: s[::2]",
		"lambda s: s[a:b]",
	} {
		fn := mustParseUDF(t, src)
		ret := fn.Body[0].(*Return)
		if _, ok := ret.X.(*Slice); !ok {
			t.Errorf("%s: got %s", src, Dump(ret.X))
		}
	}
}

func TestParseStringFormatting(t *testing.T) {
	fn := mustParseUDF(t, "lambda x: '{:02}:{:02}'.format(int(x / 100), x % 100) if x else None")
	ret := fn.Body[0].(*Return)
	ife := ret.X.(*IfExpr)
	call, ok := ife.Then.(*Call)
	if !ok {
		t.Fatalf("then = %s", Dump(ife.Then))
	}
	attr, ok := call.Fn.(*Attr)
	if !ok || attr.Name != "format" {
		t.Fatalf("fn = %s", Dump(call.Fn))
	}
}

func TestParsePercentFormat(t *testing.T) {
	fn := mustParseUDF(t, "lambda x: '%05d' % int(x['postal_code'])")
	ret := fn.Body[0].(*Return)
	bin, ok := ret.X.(*BinOp)
	if !ok || bin.Op != pyvalue.OpMod {
		t.Fatalf("ret = %s", Dump(ret.X))
	}
}

func TestParseInOperator(t *testing.T) {
	fn := mustParseUDF(t, "lambda t: 'condo' in t or 'apartment' in t")
	ret := fn.Body[0].(*Return)
	bo, ok := ret.X.(*BoolOp)
	if !ok || bo.Op != pyvalue.OpOr || len(bo.Xs) != 2 {
		t.Fatalf("ret = %s", Dump(ret.X))
	}
	cmp := bo.Xs[0].(*Compare)
	if cmp.Ops[0] != pyvalue.OpIn {
		t.Fatalf("op = %v", cmp.Ops)
	}
}

func TestParseNotIn(t *testing.T) {
	fn := mustParseUDF(t, "lambda x: x not in ('a', 'b')")
	cmp := fn.Body[0].(*Return).X.(*Compare)
	if cmp.Ops[0] != pyvalue.OpNotIn {
		t.Fatalf("op = %v", cmp.Ops)
	}
}

func TestParseForLoopWithRange(t *testing.T) {
	src := `def f(x):
    total = 0
    for i in range(10):
        total += i
    return total
`
	fn := mustParseUDF(t, src)
	fl, ok := fn.Body[1].(*For)
	if !ok {
		t.Fatalf("body[1] = %T", fn.Body[1])
	}
	if _, ok := fl.Var.(*Name); !ok {
		t.Fatalf("var = %s", Dump(fl.Var))
	}
}

func TestParseWhileBreakContinue(t *testing.T) {
	src := `def f(x):
    i = 0
    while True:
        i += 1
        if i > 10:
            break
        if i % 2 == 0:
            continue
    return i
`
	fn := mustParseUDF(t, src)
	wl, ok := fn.Body[1].(*While)
	if !ok {
		t.Fatalf("body[1] = %T", fn.Body[1])
	}
	if len(wl.Body) != 3 {
		t.Fatalf("while body = %d stmts", len(wl.Body))
	}
}

func TestParseImplicitLineJoining(t *testing.T) {
	src := `lambda s: s.replace('Inc.', '') \
    .replace('LLC', '') \
    .replace('Co.', '').strip()`
	fn := mustParseUDF(t, src)
	ret := fn.Body[0].(*Return)
	call, ok := ret.X.(*Call)
	if !ok {
		t.Fatalf("ret = %s", Dump(ret.X))
	}
	attr := call.Fn.(*Attr)
	if attr.Name != "strip" {
		t.Fatalf("outermost = %q", attr.Name)
	}
}

func TestParseParenJoining(t *testing.T) {
	src := `def f(x):
    y = (x +
         1)
    return y
`
	mustParseUDF(t, src)
}

func TestParseTupleUnpacking(t *testing.T) {
	src := `def f(x):
    a, b = x['u'], x['v']
    return a + b
`
	fn := mustParseUDF(t, src)
	as, ok := fn.Body[0].(*Assign)
	if !ok {
		t.Fatalf("body[0] = %T", fn.Body[0])
	}
	if _, ok := as.Target.(*TupleLit); !ok {
		t.Fatalf("target = %s", Dump(as.Target))
	}
}

func TestParseRawStringRegex(t *testing.T) {
	fn := mustParseUDF(t, `lambda x: re_search(r'^(\S+) (\S+)', x)`)
	ret := fn.Body[0].(*Return)
	call := ret.X.(*Call)
	lit, ok := call.Args[0].(*StrLit)
	if !ok {
		t.Fatalf("arg = %s", Dump(call.Args[0]))
	}
	if !strings.HasPrefix(lit.S, `^(\S+)`) {
		t.Fatalf("raw string = %q", lit.S)
	}
}

func TestParseRegexEscapesInNormalString(t *testing.T) {
	// Python keeps unknown escapes verbatim; the weblog pipeline relies on
	// this for '\S' and '\d' in a non-raw string.
	fn := mustParseUDF(t, `lambda x: re_search('^(\S+) \[([\w:/]+\s[+\-]\d{4})\]', x)`)
	call := fn.Body[0].(*Return).X.(*Call)
	lit := call.Args[0].(*StrLit)
	if !strings.Contains(lit.S, `\S`) || !strings.Contains(lit.S, `\d{4}`) {
		t.Fatalf("escapes lost: %q", lit.S)
	}
}

func TestParsePowerRightAssoc(t *testing.T) {
	e, err := ParseExprString("2 ** 3 ** 2")
	if err != nil {
		t.Fatal(err)
	}
	top := e.(*BinOp)
	if _, ok := top.Right.(*BinOp); !ok {
		t.Fatalf("** not right-associative: %s", Dump(e))
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	e, err := ParseExprString("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	top := e.(*BinOp)
	if top.Op != pyvalue.OpAdd {
		t.Fatalf("top = %q", top.Op)
	}
	if r, ok := top.Right.(*BinOp); !ok || r.Op != pyvalue.OpMul {
		t.Fatalf("precedence wrong: %s", Dump(e))
	}
}

func TestParseUnaryMinusPrecedence(t *testing.T) {
	e, err := ParseExprString("-x ** 2")
	if err != nil {
		t.Fatal(err)
	}
	// -x**2 is -(x**2) in Python.
	top, ok := e.(*UnaryOp)
	if !ok || top.Op != pyvalue.OpSub {
		t.Fatalf("got %s", Dump(e))
	}
	if _, ok := top.X.(*BinOp); !ok {
		t.Fatalf("got %s", Dump(e))
	}
}

func TestParseStringConcatenationAdjacent(t *testing.T) {
	e, err := ParseExprString(`'abc' 'def'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := e.(*StrLit)
	if lit.S != "abcdef" {
		t.Fatalf("got %q", lit.S)
	}
}

func TestParseKeywordArgs(t *testing.T) {
	e, err := ParseExprString("round(x, ndigits=2)")
	if err != nil {
		t.Fatal(err)
	}
	call := e.(*Call)
	if len(call.Args) != 1 || len(call.KwNames) != 1 || call.KwNames[0] != "ndigits" {
		t.Fatalf("got %s", Dump(e))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"lambda x: (",
		"def f(x):\nreturn x", // missing indent
		"lambda x: x +",
		"x = y = 1",
		"1 = x",
		"lambda x: 'unterminated",
	}
	for _, src := range cases {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("ParseModule(%q) succeeded, want error", src)
		}
	}
}

func TestParseUDFErrors(t *testing.T) {
	for _, src := range []string{"", "x + 1", "x = 1"} {
		if _, err := ParseUDF(src); err == nil {
			t.Errorf("ParseUDF(%q) succeeded, want error", src)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	src := `def f(x):
    # leading comment
    y = x + 1  # trailing comment

    return y
`
	fn := mustParseUDF(t, src)
	if len(fn.Body) != 2 {
		t.Fatalf("len(body) = %d", len(fn.Body))
	}
}

func TestParseNestedIndexAndMatchGroups(t *testing.T) {
	fn := mustParseUDF(t, "lambda m: {'ip': m[1], 'code': int(m[8])}")
	d := fn.Body[0].(*Return).X.(*DictLit)
	if len(d.Keys) != 2 {
		t.Fatalf("dict = %s", Dump(d))
	}
}

func TestParseHexAndUnderscoreLiterals(t *testing.T) {
	e, err := ParseExprString("0xff + 1_000_000")
	if err != nil {
		t.Fatal(err)
	}
	bin := e.(*BinOp)
	if bin.Left.(*NumLit).I != 255 || bin.Right.(*NumLit).I != 1000000 {
		t.Fatalf("got %s", Dump(e))
	}
}

func TestParseScientificFloats(t *testing.T) {
	e, err := ParseExprString("2e7")
	if err != nil {
		t.Fatal(err)
	}
	if lit := e.(*NumLit); !lit.IsFloat || lit.F != 2e7 {
		t.Fatalf("got %+v", e)
	}
}

func TestNumLocals(t *testing.T) {
	src := `def f(x):
    a = 1
    b = 2
    for i in range(3):
        a += i
    c = [t for t in range(2)]
    return a + b + len(c)
`
	fn := mustParseUDF(t, src)
	// x, a, b, i, c, t
	if got := fn.NumLocals(); got != 6 {
		t.Fatalf("NumLocals = %d, want 6", got)
	}
}

func TestAnalyzeColumnsByName(t *testing.T) {
	src := `def f(x):
    v = x['price'] + x['tax']
    return v
`
	ca := AnalyzeColumns(mustParseUDF(t, src))
	if ca.WholeRow {
		t.Fatal("unexpected WholeRow")
	}
	if len(ca.ByName) != 2 || ca.ByName[0] != "price" || ca.ByName[1] != "tax" {
		t.Fatalf("ByName = %v", ca.ByName)
	}
}

func TestAnalyzeColumnsByIndex(t *testing.T) {
	ca := AnalyzeColumns(mustParseUDF(t, "lambda x: x[0].upper() + x[1]"))
	if ca.WholeRow || len(ca.ByIndex) != 2 {
		t.Fatalf("got %+v", ca)
	}
}

func TestAnalyzeColumnsWholeRowEscape(t *testing.T) {
	ca := AnalyzeColumns(mustParseUDF(t, "lambda x: len(x)"))
	if !ca.WholeRow {
		t.Fatal("expected WholeRow for len(x)")
	}
	ca = AnalyzeColumns(mustParseUDF(t, "lambda x: x[x['k']]"))
	if !ca.WholeRow {
		t.Fatal("expected WholeRow for dynamic subscript")
	}
}

func TestAnalyzeColumnsOutputColumns(t *testing.T) {
	src := `def f(x):
    if x['a'] > 0:
        return {'u': 1, 'v': 2}
    return {'u': 0, 'v': 3}
`
	ca := AnalyzeColumns(mustParseUDF(t, src))
	if len(ca.OutputColumns) != 2 || ca.OutputColumns[0] != "u" {
		t.Fatalf("OutputColumns = %v", ca.OutputColumns)
	}
}

func TestAnalyzeColumnsShadowedParam(t *testing.T) {
	src := `def f(x):
    x = x['a']
    return x
`
	ca := AnalyzeColumns(mustParseUDF(t, src))
	if !ca.WholeRow {
		t.Fatal("expected WholeRow when param is reassigned")
	}
}

func TestUsesUnsupported(t *testing.T) {
	if r := UsesUnsupported(mustParseUDF(t, "lambda x: x + 1")); r != "" {
		t.Fatalf("got %q", r)
	}
	fn := mustParseUDF(t, "lambda x: (lambda y: y)(x)")
	if r := UsesUnsupported(fn); r == "" {
		t.Fatal("nested lambda not flagged")
	}
}

func TestLexIndentationError(t *testing.T) {
	src := "def f(x):\n    y = 1\n  return y\n"
	if _, err := ParseModule(src); err == nil {
		t.Fatal("bad dedent accepted")
	}
}

func TestParseZillowExtractPrice(t *testing.T) {
	// The gnarliest UDF in the Zillow pipeline, verbatim from the paper.
	src := `def extractPrice(x):
    price = x['price']
    p = 0
    if x['offer'] == 'sold':
        val = x['facts and features']
        s = val[val.find('Price/sqft:') + len('Price/sqft:') + 1:]
        r = s[s.find('$')+1:s.find(', ') - 1]
        price_per_sqft = int(r)
        p = price_per_sqft * x['sqft']
    elif x['offer'] == 'rent':
        max_idx = price.rfind('/')
        p = int(price[1:max_idx].replace(',', ''))
    else:
        p = int(price[1:].replace(',', ''))
    return p
`
	fn := mustParseUDF(t, src)
	ca := AnalyzeColumns(fn)
	want := []string{"facts and features", "offer", "price", "sqft"}
	if !equalStrings(ca.ByName, want) {
		t.Fatalf("ByName = %v, want %v", ca.ByName, want)
	}
}

// TestLexErrorWinsOverEarlierParseError pins that the whole source is
// lexed before any of it is parsed: a lex error reports even behind an
// earlier syntax error, and a recycled token buffer leaves the next
// parse unchanged.
func TestLexErrorWinsOverEarlierParseError(t *testing.T) {
	_, err := ParseModule("x = = 1\ny = $\n")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("got %v, want the line-2 lex error", err)
	}
	for i := 0; i < 3; i++ {
		fn, err := ParseUDF("lambda x: x['a'] + 1")
		if err != nil || fn.NumExprs != 6 || len(fn.Params) != 1 {
			t.Fatalf("parse %d after a lex error: %+v / %v", i, fn, err)
		}
	}
}
