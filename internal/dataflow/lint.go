package dataflow

import (
	"strings"

	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
)

// failedLints surfaces the inference failures as lints: statically
// raising expressions and constructs outside the compilable subset.
// These nodes compile into exception exits, so every row reaching them
// takes the general path — worth telling the user about.
func failedLints(info *inference.Info) []Lint {
	var ls []Lint
	for n, f := range info.Failed {
		code := "unsupported"
		if f.Raises != "" {
			code = "always-raises"
		}
		// Reason already names the position; the Lint carries it
		// structurally, so strip the textual prefix.
		msg := strings.TrimPrefix(f.Reason, f.Pos.String()+": ")
		ls = append(ls, Lint{Pos: n.Pos(), Code: code, Msg: msg})
	}
	return ls
}

// unusedVarLints reports locals that are assigned but never read.
// Parameters and "_" are exempt.
func unusedVarLints(fn *pyast.Function) []Lint {
	// A body of one return (every lambda) assigns nothing, so it needs
	// no read count.
	if len(fn.Body) == 1 {
		if _, ok := fn.Body[0].(*pyast.Return); ok {
			return nil
		}
	}
	params := map[string]bool{}
	for _, p := range fn.Params {
		params[p] = true
	}
	assigned := map[string]pyast.Pos{} // first assignment position
	reads := map[string]int{}

	noteAssign := func(t pyast.Expr) {
		switch t := t.(type) {
		case *pyast.Name:
			if _, ok := assigned[t.Ident]; !ok {
				assigned[t.Ident] = t.Pos()
			}
		case *pyast.TupleLit:
			for _, e := range t.Elts {
				if n, ok := e.(*pyast.Name); ok {
					if _, seen := assigned[n.Ident]; !seen {
						assigned[n.Ident] = n.Pos()
					}
				}
			}
		case *pyast.Subscript:
			// x[i] = v reads x (and i); handled by the walk below.
		}
	}

	// Walk statements, distinguishing write-position names from reads.
	var walkExpr func(e pyast.Expr)
	walkExpr = func(e pyast.Expr) {
		pyast.Inspect(e, func(n pyast.Node) bool {
			if nm, ok := n.(*pyast.Name); ok {
				reads[nm.Ident]++
			}
			return true
		})
	}
	var walkStmts func(ss []pyast.Stmt)
	walkStmts = func(ss []pyast.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *pyast.Assign:
				noteAssign(s.Target)
				// Subscript targets read their container and index.
				if sub, ok := s.Target.(*pyast.Subscript); ok {
					walkExpr(sub.X)
					walkExpr(sub.Index)
				}
				walkExpr(s.Value)
			case *pyast.AugAssign:
				// target op= value both reads and writes the target.
				noteAssign(s.Target)
				walkExpr(s.Target)
				walkExpr(s.Value)
			case *pyast.ExprStmt:
				walkExpr(s.X)
			case *pyast.Return:
				if s.X != nil {
					walkExpr(s.X)
				}
			case *pyast.If:
				walkExpr(s.Cond)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *pyast.For:
				noteAssign(s.Var)
				walkExpr(s.Iter)
				walkStmts(s.Body)
			case *pyast.While:
				walkExpr(s.Cond)
				walkStmts(s.Body)
			}
		}
	}
	walkStmts(fn.Body)

	var ls []Lint
	for name, pos := range assigned {
		if params[name] || name == "_" {
			continue
		}
		if reads[name] > countWrites(fn.Body, name) {
			continue
		}
		ls = append(ls, Lint{Pos: pos, Code: "unused-var",
			Msg: "variable " + name + " is assigned but never used"})
	}
	return ls
}

// countWrites counts write-position occurrences of name, so the read
// tally (which the generic walk inflates via AugAssign target reads)
// can be compared fairly. Plain Assign targets are never passed to
// walkExpr, so only AugAssign targets need discounting.
func countWrites(ss []pyast.Stmt, name string) int {
	count := 0
	pyast.InspectStmts(ss, func(n pyast.Node) bool {
		if aug, ok := n.(*pyast.AugAssign); ok {
			if t, ok := aug.Target.(*pyast.Name); ok && t.Ident == name {
				count++
			}
		}
		return true
	})
	return count
}
