package pyast

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// corpusUDF is one UDF source the repository holds, with where it was
// found.
type corpusUDF struct {
	From string `json:"from"`
	Src  string `json:"src"`
}

const corpusFile = "testdata/udf_corpus.json"

// collectCorpus gathers every UDF source of the repository's pipelines,
// examples and plan files, plus the serve.cold benchmark's six UDFs.
// Go files contribute their constant string expressions that read as a
// lambda or a def; JSON files contribute every "code" value.
func collectCorpus(t *testing.T) []corpusUDF {
	t.Helper()
	root := filepath.Join("..", "..")
	var out []corpusUDF
	seen := map[string]bool{}
	add := func(from, src string) {
		if seen[src] {
			return
		}
		seen[src] = true
		out = append(out, corpusUDF{From: filepath.ToSlash(from), Src: src})
	}
	var files []string
	for _, dir := range []string{"internal/pipelines", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, glob := range []string{"testdata/*.json", "internal/spec/testdata/*.json", "testdata/plancheck/*.json"} {
		ms, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, ms...)
	}
	sort.Strings(files)
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		var srcs []string
		if strings.HasSuffix(p, ".go") {
			srcs = goUDFStrings(t, p)
		} else {
			srcs = jsonUDFStrings(t, p)
		}
		for _, s := range srcs {
			add(rel, s)
		}
	}
	for _, s := range serveColdUDFs() {
		add("bench/serve.go servePlan", s)
	}
	return out
}

// serveColdUDFs rebuilds the serve.cold plan's six withColumn UDFs:
// 40 conditional terms each over the previous column.
func serveColdUDFs() []string {
	var out []string
	prev := "a"
	for i := 0; i < 6; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "lambda x: x['%s'] + k0", prev)
		for t := 0; t < 40; t++ {
			fmt.Fprintf(&sb, " + (x['%s'] * %d if x['%s'] %% %d == 0 else %d - x['%s'])", prev, t+1, prev, t+2, t, prev)
		}
		out = append(out, sb.String())
		prev = fmt.Sprintf("c%d", i)
	}
	return out
}

func goUDFStrings(t *testing.T, path string) []string {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		s, ok := constString(e)
		if !ok {
			return true
		}
		if trimmed := strings.TrimSpace(s); strings.HasPrefix(trimmed, "lambda") || strings.HasPrefix(trimmed, "def ") {
			out = append(out, s)
		}
		return false
	})
	return out
}

// constString evaluates a string literal or a + concatenation of them.
func constString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, ok := constString(e.X)
		if !ok {
			return "", false
		}
		r, ok := constString(e.Y)
		return l + r, ok
	case *ast.ParenExpr:
		return constString(e.X)
	}
	return "", false
}

func jsonUDFStrings(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		// Some plancheck inputs are deliberately malformed JSON.
		return nil
	}
	var out []string
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if s, ok := v[k].(string); ok && k == "code" {
					out = append(out, s)
					continue
				}
				walk(v[k])
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	walk(v)
	return out
}

// loadCorpus reads the committed UDF corpus; the dataflow goldens run
// over the same file.
func loadCorpus(t testing.TB, path string) []corpusUDF {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c []corpusUDF
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCorpusCurrent pins the committed corpus to what the repository
// holds, so a new or changed UDF joins the goldens (go test -update).
func TestCorpusCurrent(t *testing.T) {
	got := collectCorpus(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	checkGolden(t, corpusFile, raw)
}

// malformedSources are inputs the lexer or parser must reject (or
// accept) at a pinned position with a pinned message: unterminated and
// escaped strings, a dedent mismatch, stray characters, and every
// multi-character operator next to its one-byte prefixes.
func malformedSources() []string {
	srcs := []string{
		"lambda x: 'abc",
		`lambda x: "abc`,
		"lambda x: '''abc",
		"lambda x: '''abc''",
		"lambda x: 'a\\",
		"lambda x: 'ab\ncd'",
		"lambda x: r'abc",
		"lambda x: r'a\\",
		"lambda x: r'a\\'b'",
		`lambda x: r'\d+\.\w'`,
		`lambda x: 'a\x4'`,
		`lambda x: 'a\xzz'`,
		`lambda x: 'a\x41\x6a'`,
		`lambda x: '\q\S+\d{3}'`,
		`lambda x: 'it\'s' + "say \"hi\""`,
		`lambda x: "\t\n\r\\\0"`,
		"lambda x: 'a\\\nb'",
		"lambda x: '''a\\'''b\nc'''",
		"lambda x: \"\"\"one \"quoted\" two\"\"\"",
		"lambda x: 'a' 'b' \"c\"",
		"def f(x):\n    if x:\n        return 1\n  return 2\n",
		"def f(x):\n\tif x:\n\t\treturn 1\n\treturn 2\n",
		"def f(x):\nreturn x\n",
		"def f(x):\n    return x\n        + 1\n",
		"lambda x: x $ 1",
		"lambda x: x ? 1",
		"lambda x: x ! 1",
		"lambda x: x ` 1",
		"lambda x: x é",
		"lambda x: x\x00",
		"lambda x: (x +\n  1)",
		"lambda x: x + \\\n 1",
		"lambda x: [1, 2,\n 3][x]",
		"lambda x: x['a'",
		"lambda x: )",
		"lambda x:",
		"",
		"   ",
		"# only a comment\n",
		"lambda x: 0x1F + 1_000 + 1.5e3 + .5 + 2E-2 + 1e",
		"lambda x: 99999999999999999999",
		"lambda x: x[1:2:3] + x[::2] + x[:] + x[1:]",
		"lambda x: not x is not None and x not in 'ab'",
		"lambda x: -x ** -2 + ~x << 1 >> 2 & 3 | 4 ^ 5",
		"lambda x: x.f(1, k=2)(3)[4].g",
		"lambda x: {'a': 1, 'b': [i for i in x if i]}",
		"lambda a, b: lambda c: a if b else c",
		"def f(x):\n    y = z = x\n    return y\n",
		"def f(x):\n    1 = x\n    return x\n",
		"def f(x):\n    for i, j in x: pass\n    while x: break\n    return x\n",
		"def f(x):\n    return\n",
		"def f(x):\n    if x: return 1\n    elif x > 1:\n        continue\n    else: return 2\n",
		"def f(x):\n    x[0], y = 1, 2\n    return y\n",
		"lambda x: x\ndef g(y): return y\n",
		"x + 1",
		"def f(x): return x\ndef g(y): return y\n",
	}
	ops := []string{"**=", "//=", "<<=", ">>=", "==", "!=", "<=", ">=", "**", "//", "->", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>"}
	seen := map[string]bool{}
	for _, op := range ops {
		for n := len(op); n >= 1; n-- {
			p := op[:n]
			if seen[p] {
				continue
			}
			seen[p] = true
			srcs = append(srcs,
				"lambda x: x "+p+" 1",
				"lambda x: x"+p+"1",
				"lambda x: x "+p,
				"def f(x):\n    x "+p+" 2\n    return x\n")
		}
	}
	return srcs
}

// TestParseGolden renders the token stream and the AST (or the error),
// and the column-access summary, of every corpus UDF and every
// malformed source.
func TestParseGolden(t *testing.T) {
	corpus := loadCorpus(t, corpusFile)
	var sb strings.Builder
	for _, u := range corpus {
		fmt.Fprintf(&sb, "=== %s\n%s\n", u.From, u.Src)
		renderParse(&sb, u.Src)
	}
	for _, src := range malformedSources() {
		fmt.Fprintf(&sb, "=== malformed %q\n", src)
		renderParse(&sb, src)
	}
	checkGolden(t, "testdata/parse.golden", []byte(sb.String()))
}

func renderParse(sb *strings.Builder, src string) {
	toks, err := Lex(src)
	if err != nil {
		fmt.Fprintf(sb, "lex error: %v\n", err)
	} else {
		sb.WriteString("tokens:")
		for _, tk := range toks {
			sb.WriteString(" " + tk.String())
		}
		sb.WriteString("\n")
	}
	fn, err := ParseUDF(src)
	if err != nil {
		fmt.Fprintf(sb, "parse error: %v\n", err)
		return
	}
	fmt.Fprintf(sb, "function %q params=%v\n", fn.Name, fn.Params)
	ca := AnalyzeColumns(fn)
	fmt.Fprintf(sb, "columns by_name=%q by_index=%v whole_row=%v output=%q unsupported=%q\n",
		ca.ByName, ca.ByIndex, ca.WholeRow, ca.OutputColumns, UsesUnsupported(fn))
	for _, s := range fn.Body {
		renderNode(sb, s, 1)
	}
}

// renderNode writes every field the parser sets: kind, position,
// operators, names and literal values, one node per line.
func renderNode(sb *strings.Builder, n Node, depth int) {
	ind := strings.Repeat("  ", depth)
	if n == nil {
		sb.WriteString(ind + "<nil>\n")
		return
	}
	line := func(format string, args ...any) {
		fmt.Fprintf(sb, "%s%T@%s "+format+"\n", append([]any{ind, n, n.Pos()}, args...)...)
	}
	kids := func(ns ...Node) {
		for _, k := range ns {
			renderNode(sb, k, depth+1)
		}
	}
	exprs := func(es []Expr) {
		for _, e := range es {
			renderNode(sb, e, depth+1)
		}
	}
	stmts := func(label string, ss []Stmt) {
		fmt.Fprintf(sb, "%s  %s(%d)\n", ind, label, len(ss))
		for _, s := range ss {
			renderNode(sb, s, depth+2)
		}
	}
	opt := func(e Expr) Node {
		if e == nil {
			return nil
		}
		return e
	}
	switch n := n.(type) {
	case *NumLit:
		line("float=%v i=%d f=%s", n.IsFloat, n.I, strconv.FormatFloat(n.F, 'g', -1, 64))
	case *StrLit:
		line("%q", n.S)
	case *BoolLit:
		line("%v", n.B)
	case *NoneLit:
		line("")
	case *Name:
		line("%s slot=%d", n.Ident, n.Slot)
	case *BinOp:
		line("%q", n.Op)
		kids(n.Left, n.Right)
	case *UnaryOp:
		line("%q", n.Op)
		kids(n.X)
	case *Compare:
		// %q of a []pyvalue.Op would print it as bytes: spell each op.
		ops := make([]string, len(n.Ops))
		for i, op := range n.Ops {
			ops[i] = op.String()
		}
		line("%q", ops)
		kids(n.First)
		exprs(n.Rest)
	case *BoolOp:
		line("%q n=%d", n.Op, len(n.Xs))
		exprs(n.Xs)
	case *IfExpr:
		line("")
		kids(n.Cond, n.Then, n.Else)
	case *Call:
		line("args=%d kw=%q", len(n.Args), n.KwNames)
		kids(n.Fn)
		exprs(n.Args)
		exprs(n.KwArgs)
	case *Attr:
		line("%s", n.Name)
		kids(n.X)
	case *Subscript:
		line("rowidx=%d", n.RowIdx)
		kids(n.X, n.Index)
	case *Slice:
		line("lo=%v hi=%v step=%v", n.Lo != nil, n.Hi != nil, n.Step != nil)
		kids(n.X, opt(n.Lo), opt(n.Hi), opt(n.Step))
	case *TupleLit:
		line("n=%d", len(n.Elts))
		exprs(n.Elts)
	case *ListLit:
		line("n=%d", len(n.Elts))
		exprs(n.Elts)
	case *DictLit:
		line("n=%d", len(n.Keys))
		for i := range n.Keys {
			kids(n.Keys[i], n.Vals[i])
		}
	case *ListComp:
		line("%s varslot=%d cond=%v", n.Var, n.VarSlot, n.Cond != nil)
		kids(n.Iter, n.Elt, opt(n.Cond))
	case *Lambda:
		line("%v", n.Params)
		kids(n.Body)
	case *ExprStmt:
		line("")
		kids(n.X)
	case *Assign:
		line("")
		kids(n.Target, n.Value)
	case *AugAssign:
		line("%q", n.Op)
		kids(n.Target, n.Value)
	case *If:
		line("")
		kids(n.Cond)
		stmts("then", n.Then)
		stmts("else", n.Else)
	case *For:
		line("")
		kids(n.Var, n.Iter)
		stmts("body", n.Body)
	case *While:
		line("")
		kids(n.Cond)
		stmts("body", n.Body)
	case *Return:
		line("value=%v", n.X != nil)
		kids(opt(n.X))
	case *Pass, *Break, *Continue:
		line("")
	case *FuncDef:
		line("%s %v", n.Name, n.Params)
		stmts("body", n.Body)
	default:
		line("?")
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if string(got) != string(want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
