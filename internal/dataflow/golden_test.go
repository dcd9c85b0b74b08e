package dataflow

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenGlobals are the module-level constants the corpus UDFs read.
var goldenGlobals = map[string]pyvalue.Value{
	"k0":      pyvalue.Int(7),
	"mult":    pyvalue.Int(2),
	"limit":   pyvalue.Int(99999),
	"prefix":  pyvalue.Str("z-"),
	"LETTERS": pyvalue.Str("ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
}

// typing is one assignment of parameter types to a UDF.
type typing struct {
	label  string
	params []types.Type
	cols   []types.Type // the seeded columns (row or scalar parameter)
}

// rowColumns lists the constant string keys the UDF subscripts its
// parameter param with, sorted.
func rowColumns(fn *pyast.Function, param string) []string {
	seen := map[string]bool{}
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		if s, ok := n.(*pyast.Subscript); ok {
			if x, ok := s.X.(*pyast.Name); ok && x.Ident == param {
				if k, ok := s.Index.(*pyast.StrLit); ok {
					seen[k.S] = true
				}
			}
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func rowOf(names []string, t types.Type) (types.Type, []types.Type) {
	cols := make([]types.Column, len(names))
	ts := make([]types.Type, len(names))
	for i, n := range names {
		cols[i] = types.Column{Name: n, Type: t}
		ts[i] = t
	}
	return types.Row(types.NewSchema(cols)), ts
}

// typings picks parameter types for a corpus UDF: a row of uniformly
// typed columns when the UDF subscripts its row by name, else scalars.
func typings(fn *pyast.Function) []typing {
	elems := []struct {
		label string
		t     types.Type
	}{
		{"i64", types.I64}, {"str", types.Str}, {"f64", types.F64},
		{"opt_str", types.Option(types.Str)}, {"opt_i64", types.Option(types.I64)},
	}
	var out []typing
	switch len(fn.Params) {
	case 1:
		names := rowColumns(fn, fn.Params[0])
		for _, e := range elems {
			if len(names) == 0 {
				out = append(out, typing{e.label, []types.Type{e.t}, []types.Type{e.t}})
				continue
			}
			rt, cols := rowOf(names, e.t)
			out = append(out, typing{"row_" + e.label, []types.Type{rt}, cols})
		}
		if len(names) == 0 {
			out = append(out, typing{"null", []types.Type{types.Null}, []types.Type{types.Null}})
		}
	case 2:
		names := rowColumns(fn, fn.Params[1])
		for _, e := range elems[:3] {
			if len(names) == 0 {
				out = append(out, typing{e.label + "," + e.label, []types.Type{e.t, e.t}, nil})
				continue
			}
			rt, cols := rowOf(names, e.t)
			out = append(out, typing{e.label + ",row_" + e.label, []types.Type{e.t, rt}, cols})
		}
	}
	return out
}

// sampleSeeds seeds columns the way sample statistics do: every third
// column constant, the next an integer range.
func sampleSeeds(cols []types.Type) []ColFact {
	out := make([]ColFact, len(cols))
	for i, t := range cols {
		out[i] = ColFact{Type: t}
		switch i % 3 {
		case 0:
			switch t.Kind() {
			case types.KindI64:
				out[i].Const = pyvalue.Int(int64(12 * (i + 1)))
			case types.KindStr:
				out[i].Const = pyvalue.Str("ab, cd (1990-2001)")
			case types.KindF64:
				out[i].Const = pyvalue.Float(2.5)
			case types.KindNull:
				out[i].Const = pyvalue.None{}
			}
		case 1:
			if t.Kind() == types.KindI64 {
				out[i].Lo, out[i].Hi, out[i].HasRange = 1, 2400, true
			}
		}
	}
	return out
}

func topSeeds(cols []types.Type) []ColFact {
	out := make([]ColFact, len(cols))
	for i, t := range cols {
		out[i] = ColFact{Type: t}
	}
	return out
}

// loadCorpus reads the UDF corpus the parser goldens keep, and types
// goldenGlobals.
func loadCorpus(t *testing.T) ([]struct{ From, Src string }, map[string]types.Type) {
	t.Helper()
	raw, err := os.ReadFile("../pyast/testdata/udf_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct{ From, Src string }
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	globalTypes := map[string]types.Type{}
	for k, v := range goldenGlobals {
		switch v.(type) {
		case pyvalue.Int:
			globalTypes[k] = types.I64
		case pyvalue.Str:
			globalTypes[k] = types.Str
		}
	}
	return corpus, globalTypes
}

// TestAnalyzeGolden pins every fact the analysis reports for the
// repository's UDF corpus: per-expression constants, nullability,
// zero and sign proofs and always-raise sites, dead arms, guards, raise
// kinds and lints — at ⊤ seeds, at sample-like seeds and without null
// facts.
func TestAnalyzeGolden(t *testing.T) {
	corpus, globalTypes := loadCorpus(t)
	var sb strings.Builder
	serveCold := 0
	for _, u := range corpus {
		// serve.cold's six UDFs differ only in the column they read.
		if strings.HasPrefix(u.From, "bench/") {
			if serveCold++; serveCold > 1 {
				continue
			}
		}
		fmt.Fprintf(&sb, "=== %s\n%s\n", u.From, u.Src)
		fn, err := pyast.ParseUDF(u.Src)
		if err != nil {
			fmt.Fprintf(&sb, "parse error: %v\n", err)
			continue
		}
		for ti, ty := range typings(fn) {
			seeds := []struct {
				label string
				opts  Options
			}{
				{"top", Options{Columns: topSeeds(ty.cols), NullFacts: true, Globals: goldenGlobals}},
				{"sample", Options{Columns: sampleSeeds(ty.cols), NullFacts: true, Globals: goldenGlobals}},
			}
			if ti == 0 {
				seeds = append(seeds, struct {
					label string
					opts  Options
				}{"nonull", Options{Columns: sampleSeeds(ty.cols), Globals: goldenGlobals}})
			}
			for _, sd := range seeds {
				fmt.Fprintf(&sb, "--- %s %s\n", ty.label, sd.label)
				info, err := inference.TypeFunction(fn, ty.params, globalTypes, inference.Options{})
				if err != nil {
					fmt.Fprintf(&sb, "type error: %v\n", err)
					continue
				}
				renderResult(&sb, fn, Analyze(info, sd.opts))
			}
		}
	}
	got := []byte(sb.String())
	const path = "testdata/analyze.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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

// renderResult queries every expression and branch of fn, then prints
// the guards those queries require, the raise kinds and the lints.
func renderResult(sb *strings.Builder, fn *pyast.Function, r *Result) {
	idx := 0
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		var facts []string
		switch n.(type) {
		case *pyast.If, *pyast.IfExpr:
			if d := r.DeadBranch(n); d != inference.DeadNone {
				facts = append(facts, fmt.Sprintf("dead=%d", d))
			}
		}
		if e, ok := n.(pyast.Expr); ok {
			if v, ok := r.Constant(e); ok {
				facts = append(facts, fmt.Sprintf("const=%s:%s", pyvalue.TypeName(v), pyvalue.Repr(v)))
			}
			if r.NonNull(e) {
				facts = append(facts, "nonnull")
			}
			if r.NonZero(e) {
				facts = append(facts, "nonzero")
			}
			if r.NonNegative(e) {
				facts = append(facts, "nonneg")
			}
			if k, ok := r.AlwaysRaises(e); ok {
				facts = append(facts, "raises="+k.String())
			}
		}
		if len(facts) > 0 {
			fmt.Fprintf(sb, "%d %T@%s %s\n", idx, n, n.Pos(), strings.Join(facts, " "))
		}
		idx++
		return true
	})
	for _, g := range r.RequiredGuards() {
		c := "-"
		if g.Const != nil {
			c = pyvalue.Repr(g.Const)
		}
		fmt.Fprintf(sb, "guard col=%d const=%s range=%v:%d..%v:%d\n", g.Col, c, g.HasLo, g.Lo, g.HasHi, g.Hi)
	}
	fmt.Fprintf(sb, "canraise=%v pruned=%d\n", r.CanRaise(), r.PrunedBranches())
	for _, l := range r.Lints() {
		fmt.Fprintf(sb, "lint %s\n", l)
	}
}
