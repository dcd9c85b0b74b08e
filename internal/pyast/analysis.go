package pyast

import "sort"

// ColumnAccess summarizes how a UDF uses its row parameter. The logical
// planner (§4.7 "Logical optimizations") uses this to push projections and
// filters through UDFs and to reorder UDF-applying operators past joins.
type ColumnAccess struct {
	// ByName lists column names accessed as x['name'].
	ByName []string
	// ByIndex lists column positions accessed as x[i] with a constant i.
	ByIndex []int
	// WholeRow reports that the row parameter is used in a way the
	// analysis cannot attribute to specific columns (passed to a call,
	// returned, iterated, subscripted with a dynamic key, ...). When set,
	// the UDF must be treated as reading every column.
	WholeRow bool
	// OutputColumns lists the column names of a dict-literal return value
	// when every return statement returns a dict literal with constant
	// string keys; nil otherwise.
	OutputColumns []string
}

// Reads reports whether the UDF may read the named column at position idx.
func (ca *ColumnAccess) Reads(name string, idx int) bool {
	if ca.WholeRow {
		return true
	}
	for _, n := range ca.ByName {
		if n == name {
			return true
		}
	}
	for _, i := range ca.ByIndex {
		if i == idx {
			return true
		}
	}
	return false
}

// AnalyzeColumns computes the ColumnAccess summary for fn's first
// parameter. UDFs with zero or multiple parameters (e.g. aggregation
// combiners) are reported as WholeRow.
func AnalyzeColumns(fn *Function) *ColumnAccess {
	ca := &ColumnAccess{}
	if len(fn.Params) != 1 {
		ca.WholeRow = true
		return ca
	}
	param := fn.Params[0]
	byName := map[string]bool{}
	byIndex := map[int]bool{}

	// shadowed tracks whether the parameter has been rebound (plain,
	// tuple or augmented assignment, loop variable, comprehension or
	// nested-function parameter, nested def name); after that,
	// attribution is unsound and we bail to WholeRow. Aliasing
	// (`y = x`) is handled below: the bare-Name walk treats any
	// non-subscript use of the parameter — including the right-hand
	// side of an alias assignment — as reading every column.
	shadowed := false
	bindsParam := func(t Expr) bool {
		switch t := t.(type) {
		case *Name:
			return t.Ident == param
		case *TupleLit:
			for _, e := range t.Elts {
				if nm, ok := e.(*Name); ok && nm.Ident == param {
					return true
				}
			}
		}
		return false
	}
	// Collect accesses in the same walk; any bare use of the parameter
	// that is not the X of a constant subscript escapes the row. A
	// constant subscript's children are the consumed Name and a literal,
	// so the walk skips them.
	InspectStmts(fn.Body, func(n Node) bool {
		switch n := n.(type) {
		case *Assign:
			if bindsParam(n.Target) {
				shadowed = true
			}
		case *AugAssign:
			if bindsParam(n.Target) {
				shadowed = true
			}
		case *For:
			if bindsParam(n.Var) {
				shadowed = true
			}
		case *ListComp:
			if n.Var == param {
				shadowed = true
			}
		case *Lambda:
			for _, p := range n.Params {
				if p == param {
					shadowed = true
				}
			}
		case *FuncDef:
			if n.Name == param {
				shadowed = true
			}
			for _, p := range n.Params {
				if p == param {
					shadowed = true
				}
			}
		case *Subscript:
			if nm, ok := n.X.(*Name); ok && nm.Ident == param {
				switch idx := n.Index.(type) {
				case *StrLit:
					byName[idx.S] = true
					return false
				case *NumLit:
					if !idx.IsFloat {
						byIndex[int(idx.I)] = true
						return false
					}
				}
			}
		case *Name:
			if n.Ident == param {
				ca.WholeRow = true
			}
		}
		return true
	})
	if shadowed {
		return &ColumnAccess{WholeRow: true}
	}

	for n := range byName {
		ca.ByName = append(ca.ByName, n)
	}
	sort.Strings(ca.ByName)
	for i := range byIndex {
		ca.ByIndex = append(ca.ByIndex, i)
	}
	sort.Ints(ca.ByIndex)

	ca.OutputColumns = dictReturnColumns(fn.Body)
	return ca
}

// dictReturnColumns returns the common key set when every return in body
// returns a dict literal with constant string keys in the same order.
func dictReturnColumns(body []Stmt) []string {
	var cols []string
	ok := true
	sawReturn := false
	InspectStmts(body, func(n Node) bool {
		r, isRet := n.(*Return)
		if !isRet || !ok {
			// A return is a statement: no expression holds one.
			_, isExpr := n.(Expr)
			return !isExpr
		}
		sawReturn = true
		d, isDict := r.X.(*DictLit)
		if !isDict {
			ok = false
			return true
		}
		keys := make([]string, 0, len(d.Keys))
		for _, k := range d.Keys {
			s, isStr := k.(*StrLit)
			if !isStr {
				ok = false
				return true
			}
			keys = append(keys, s.S)
		}
		if cols == nil {
			cols = keys
		} else if !equalStrings(cols, keys) {
			ok = false
		}
		return true
	})
	if !ok || !sawReturn {
		return nil
	}
	return cols
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UsesUnsupported reports the first construct in fn outside the compilable
// subset, or "" if the whole function is compilable. The engine uses this
// to route whole UDFs to the fallback path up front (paper §5
// "Limitations": unsupported language features fall back on the
// interpreter).
func UsesUnsupported(fn *Function) string {
	reason := ""
	InspectStmts(fn.Body, func(n Node) bool {
		if reason != "" {
			return false
		}
		if _, ok := n.(*Lambda); ok {
			// Nested lambdas only appear as arguments to higher-order
			// helpers we do not compile. (Unknown function names are
			// caught later, during type inference, so UDF globals remain
			// usable.)
			reason = "nested lambda"
		}
		return true
	})
	return reason
}

// CompilableBuiltins is the set of free functions the code generator and
// interpreter both implement. Module functions (re.sub, random.choice,
// string.capwords) are attribute calls and handled separately.
var CompilableBuiltins = map[string]bool{
	"len": true, "int": true, "float": true, "str": true, "bool": true,
	"abs": true, "min": true, "max": true, "round": true, "range": true,
	"ord": true, "chr": true,
	// The paper's pipelines import these under bare names.
	"re_sub": true, "re_search": true, "random_choice": true,
	"string_capwords": true,
}
