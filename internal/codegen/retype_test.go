package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// typedOnce is one UDF typed, analyzed and compiled, with its AST nodes
// in walk order so two parses of one source line up node for node.
type typedOnce struct {
	nodes []pyast.Node
	info  *inference.Info
	flow  *dataflow.Result
	u     *UDF
}

var retypeGlobals = map[string]types.Type{"KI": types.I64, "KF": types.F64, "KB": types.Bool, "KS": types.Str}

// typeAndCompile types fn at the sample's row type (after typing it at
// ⊤ first, when pre is set — what the static verifier does to an AST it
// shares with the engine), then analyzes and compiles it as the engine
// does.
func typeAndCompile(t *testing.T, src string, pre bool) typedOnce {
	t.Helper()
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if pre {
		top := make([]types.Column, len(vecCols))
		for i, c := range vecCols {
			top[i] = types.Column{Name: c.Name, Type: types.Any}
		}
		if _, err := inference.TypeFunction(fn, []types.Type{types.Row(types.NewSchema(top))}, retypeGlobals, inference.Options{}); err != nil {
			t.Fatalf("typing %q at ⊤: %v", src, err)
		}
	}
	info, err := inference.TypeFunction(fn, []types.Type{rowType()}, retypeGlobals, inference.Options{})
	if err != nil {
		t.Fatalf("typing %q: %v", src, err)
	}
	flow := dataflow.Analyze(info, dataflow.Options{NullFacts: true, Globals: vecGlobals})
	opts := DefaultOptions()
	opts.Flow = flow
	u, _ := Compile(info, vecGlobals, opts)
	o := typedOnce{info: info, flow: flow, u: u}
	pyast.InspectStmts(fn.Body, func(n pyast.Node) bool {
		o.nodes = append(o.nodes, n)
		return true
	})
	return o
}

// nodeFacts renders everything typing and analysis decided about one
// node.
func nodeFacts(o typedOnce, n pyast.Node) string {
	s := fmt.Sprintf("%T failed=%+v dead=%v deadBranch=%v", n, o.info.Failed[n], o.info.Dead[n], o.flow.DeadBranch(n))
	if x, ok := n.(*pyast.Subscript); ok {
		s += fmt.Sprintf(" rowidx=%d", x.RowIdx)
	}
	if e, ok := n.(pyast.Expr); ok {
		c, isConst := o.flow.Constant(e)
		exc, raises := o.flow.AlwaysRaises(e)
		s += fmt.Sprintf(" type=%s const=%v/%v raises=%v/%v nonnull=%v nonzero=%v nonneg=%v",
			e.Type(), isConst, c, raises, exc, o.flow.NonNull(e), o.flow.NonZero(e), o.flow.NonNegative(e))
	}
	return s
}

// TestTypingIgnoresEarlierTyping types each UDF twice over one AST — at
// ⊤, then at the sample's types — and checks that the result equals a
// fresh parse typed once: every node's type, failure and dead-arm
// marks, the dataflow facts and lints, and the compiled program's
// result on random rows. The sources are the differential generators'
// expressions and def bodies, plus §4.7-style conditionals over the
// Null-typed column n whose pruned arm is typed at ⊤ only.
func TestTypingIgnoresEarlierTyping(t *testing.T) {
	srcs := []string{
		"lambda r: int(r['n']) if r['n'] else 0",
		"lambda r: r['n'] * 2 + r['a'] if r['n'] else r['a'] - 1",
		"lambda r: r['a'] if not r['n'] else r['n'] // r['b']",
		"def f(r):\n    if r['n']:\n        y = r['n'] + r['c']\n        return y * 2.0\n    return r['c']\n",
		"def f(r):\n    x = r['n']\n    if x:\n        return len(x) + r['a']\n    else:\n        return r['b']\n",
	}
	rng := rand.New(rand.NewSource(20261017))
	eg := &exprGen{rng: rng}
	sg := &stmtGen{exprGen: exprGen{rng: rng}}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			srcs = append(srcs, "lambda r: "+eg.num(3))
		case 1:
			srcs = append(srcs, "lambda r: "+eg.boolean(3))
		default:
			srcs = append(srcs, sg.udf("snb"[i/3%3], i%4 == 0))
		}
	}
	pruned, compiled := 0, 0
	for _, src := range srcs {
		fresh := typeAndCompile(t, src, false)
		twice := typeAndCompile(t, src, true)
		if len(fresh.nodes) != len(twice.nodes) {
			t.Fatalf("%s: parses differ in shape", src)
		}
		for i := range fresh.nodes {
			if a, b := nodeFacts(fresh, fresh.nodes[i]), nodeFacts(twice, twice.nodes[i]); a != b {
				t.Fatalf("%s: node %d typed after ⊤\n  %s\nfresh\n  %s", src, i, b, a)
			}
		}
		if !types.Equal(fresh.info.ReturnType, twice.info.ReturnType) ||
			!reflect.DeepEqual(fresh.flow.Lints(), twice.flow.Lints()) ||
			!reflect.DeepEqual(fresh.flow.CanRaise(), twice.flow.CanRaise()) ||
			!reflect.DeepEqual(fresh.flow.RequiredGuards(), twice.flow.RequiredGuards()) {
			t.Fatalf("%s: return type, lints, raises or guards depend on the earlier typing", src)
		}
		pruned += len(fresh.info.Dead)
		if (fresh.u == nil) != (twice.u == nil) {
			t.Fatalf("%s: compiles only one way", src)
		}
		if fresh.u == nil {
			continue
		}
		compiled++
		if (fresh.u.Vec == nil) != (twice.u.Vec == nil) || fresh.u.VecDecline != twice.u.VecDecline {
			t.Fatalf("%s: vector program %q vs %q", src, fresh.u.VecDecline, twice.u.VecDecline)
		}
		ff, tf := NewFrame(fresh.u.NumSlots()), NewFrame(twice.u.NumSlots())
		for _, row := range randomStrBatch(rng, 16, nullModes[compiled%len(nullModes)]).rows {
			a, aec := fresh.u.Call1(ff, rows.Tuple(row))
			b, bec := twice.u.Call1(tf, rows.Tuple(row))
			if aec != bec || aec == 0 && pyvalue.Repr(a.Value()) != pyvalue.Repr(b.Value()) {
				t.Fatalf("%s on %v: %v/%v after ⊤, %v/%v fresh", src, rows.RowToValues(row), b.Value(), bec, a.Value(), aec)
			}
		}
	}
	if pruned == 0 || compiled < len(srcs)/2 {
		t.Fatalf("%d pruned arms, %d of %d compiled: the cases no longer exercise retyping", pruned, compiled, len(srcs))
	}
}
