package dataflow

import (
	"testing"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// TestOpTable holds every pyvalue.Op to one meaning across the front end:
// its spelling parses back to it; exactly one of Binary, Unary and
// Compare takes it (and none the short-circuit operators, which every
// evaluator runs as control flow); and over literal operands of each kind
// — int, float, bool, str, None — inference's result type is the kind of
// the boxed result, or a failure whose exception the boxed call raises
// too, and dataflow folds the node to the boxed result.
func TestOpTable(t *testing.T) {
	lits := []struct {
		src string
		v   pyvalue.Value
	}{
		{"7", pyvalue.Int(7)}, {"2.5", pyvalue.Float(2.5)}, {"True", pyvalue.Bool(true)},
		{"'%s'", pyvalue.Str("%s")}, {"None", pyvalue.None{}},
	}
	kindOf := map[pyvalue.Kind]types.Kind{
		pyvalue.KInt: types.KindI64, pyvalue.KFloat: types.KindF64, pyvalue.KBool: types.KindBool,
		pyvalue.KStr: types.KindStr, pyvalue.KNone: types.KindNull,
	}
	// body parses `lambda x: src` and returns its body expression.
	body := func(src string) (*pyast.Function, pyast.Expr) {
		t.Helper()
		fn, err := pyast.ParseUDF("lambda x: " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return fn, fn.Body[0].(*pyast.Return).X
	}
	// check types and folds src, whose body node applies the operator,
	// against the boxed result v, err.
	check := func(src string, v pyvalue.Value, err error) {
		t.Helper()
		fn, x := body(src)
		info, ierr := inference.TypeFunction(fn, []types.Type{types.I64}, nil, inference.Options{})
		if ierr != nil {
			t.Fatalf("%s: %v", src, ierr)
		}
		if f, failed := info.Failed[x]; failed {
			if f.Raises != pyvalue.KindOf(err).String() {
				t.Errorf("%s: inference fails with %q, the boxed call returns %v (%v)", src, f.Raises, v, err)
			}
			return
		}
		if err != nil || x.Type().Kind() != kindOf[v.Kind()] {
			t.Errorf("%s: inference types %s, the boxed call returns %v (%v)", src, x.Type(), v, err)
			return
		}
		c, ok := Analyze(info, Options{}).Constant(x)
		if !ok || c.Kind() != v.Kind() || !pyvalue.Equal(c, v) {
			t.Errorf("%s: dataflow folds %v (%v), the boxed call returns %v", src, c, ok, v)
		}
	}
	for op := pyvalue.OpNone + 1; op < pyvalue.NumOps; op++ {
		a, b := pyvalue.Int(7), pyvalue.Int(3)
		takers := 0
		if _, err := pyvalue.Binary(op, a, b); pyvalue.KindOf(err) != pyvalue.ExcUnsupported {
			takers++
		}
		if _, err := pyvalue.Unary(op, a); pyvalue.KindOf(err) != pyvalue.ExcUnsupported {
			takers++
		}
		if _, err := pyvalue.Compare(op, a, b); pyvalue.KindOf(err) != pyvalue.ExcUnsupported {
			takers++
		}
		want := 1
		switch op {
		case pyvalue.OpAnd, pyvalue.OpOr:
			want = 0
		case pyvalue.OpAdd, pyvalue.OpSub:
			want = 2 // binary and unary
		}
		if takers != want {
			t.Errorf("%s: %d of Binary, Unary and Compare take it, want %d", op, takers, want)
		}

		if !op.IsUnary() || op.IsBinary() {
			var got pyvalue.Op
			switch _, x := body("x " + op.String() + " x"); x := x.(type) {
			case *pyast.BinOp:
				got = x.Op
			case *pyast.Compare:
				got = x.Ops[0]
			case *pyast.BoolOp:
				got = x.Op
			}
			if got != op {
				t.Errorf("%s: binary spelling parses to %s", op, got)
			}
		}
		if op.IsUnary() {
			if _, x := body(op.String() + " x"); x.(*pyast.UnaryOp).Op != op {
				t.Errorf("%s: unary spelling parses to %s", op, x.(*pyast.UnaryOp).Op)
			}
		}

		for _, l := range lits {
			if op.IsUnary() {
				v, err := pyvalue.Unary(op, l.v)
				check(op.String()+" "+l.src, v, err)
			}
			for _, r := range lits {
				src := l.src + " " + op.String() + " " + r.src
				switch {
				case op.IsBinary():
					v, err := pyvalue.Binary(op, l.v, r.v)
					check(src, v, err)
				case op.IsCompare():
					v, err := pyvalue.Compare(op, l.v, r.v)
					check(src, v, err)
				}
			}
		}
	}
}
