package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// HotAlloc flags per-row allocation patterns inside functions marked
// with a `//tuplex:kernel` directive: kernels run once per batch with
// loops over the batch's rows, so a `make` in a loop body or an
// `append` that grows a fresh slice each iteration turns into one heap
// allocation per row — exactly the cost the columnar layer exists to
// avoid. Amortized self-appends (`x = append(x, ...)`, including
// through struct fields) are allowed: they reuse capacity and allocate
// only on growth.
//
// A `string(b)` conversion assigned inside a kernel loop is flagged for
// the same reason: string kernels keep their values as spans over column
// bytes or the batch arena (aliased, not converted), and a conversion that
// is kept copies one heap string per row. (A conversion used in place — a
// map key, which the compiler elides, or a call argument on a rare path —
// is not.)
//
// Beyond raw allocation, the analyzer also flags per-row boxed-row
// construction: a `rows.Slot{...}` composite literal or an
// `unboxConforming` call inside a kernel loop means the kernel is
// rebuilding boxed rows the columnar plane was supposed to retire —
// the bounce path exists for that, and it lives outside kernels.
//
// The check is syntactic: it sees loop bodies, not dominance, so an
// allocation hoisted out of the loop (per-batch setup) is never
// flagged, and a flagged site can be silenced by hoisting or by
// switching to a reused scratch buffer.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no make/append-per-row allocation, stored string(b) conversion or boxed-Slot construction inside //tuplex:kernel loop bodies",
	Run:  runHotAlloc,
}

// kernelDirective is the marker comment, written immediately above the
// function declaration (within its doc comment group).
const kernelDirective = "tuplex:kernel"

func runHotAlloc(p *Pass) {
	for _, f := range p.Files {
		// Directives may sit in the doc group or as a detached comment
		// line directly above the declaration; collect every comment
		// line carrying the marker and match by position.
		marked := map[*ast.FuncDecl]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), kernelDirective) {
						marked[fd] = true
					}
				}
			}
		}
		for fd := range marked {
			if fd.Body != nil {
				checkKernelBody(p, fd.Body)
			}
		}
	}
}

// checkKernelBody walks the kernel's statements, flagging allocation
// calls that appear lexically inside any for/range body.
func checkKernelBody(p *Pass, body *ast.BlockStmt) {
	// handled marks calls already judged as part of an enclosing
	// assignment, so the bare-call case does not re-report them.
	handled := map[*ast.CallExpr]bool{}
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Init != nil {
					inLoop(m.Init, depth)
				}
				inLoop(m.Body, depth+1)
				return false
			case *ast.RangeStmt:
				inLoop(m.Body, depth+1)
				return false
			case *ast.FuncLit:
				// A nested closure is its own (possibly non-per-row)
				// context; kernels do not call closures per row on the
				// fast path, and flagging them would punish setup
				// helpers defined inline.
				return false
			case *ast.AssignStmt:
				if depth > 0 {
					for i, rhs := range m.Rhs {
						call, ok := rhs.(*ast.CallExpr)
						if !ok {
							continue
						}
						switch builtinName(call) {
						case "make":
							handled[call] = true
							p.Reportf(call.Pos(), "make inside kernel loop allocates per row; hoist it out of the loop or reuse a scratch buffer")
						case "append":
							handled[call] = true
							if i < len(m.Lhs) && len(call.Args) > 0 && exprString(m.Lhs[i]) == exprString(call.Args[0]) {
								continue // amortized self-append
							}
							p.Reportf(call.Pos(), "append to a different slice inside kernel loop allocates per row; use a self-append (x = append(x, ...)) or preallocate")
						case "string":
							p.Reportf(call.Pos(), "string conversion stored inside kernel loop copies one heap string per row; alias the bytes or keep the value a span")
						}
					}
				}
			case *ast.CompositeLit:
				if depth > 0 && isSlotLiteral(m) {
					p.Reportf(m.Pos(), "rows.Slot composite inside kernel loop rebuilds boxed rows per row; read cells through vector accessors or bounce the row outside the kernel")
				}
			case *ast.CallExpr:
				if depth > 0 && !handled[m] {
					switch builtinName(m) {
					case "make":
						p.Reportf(m.Pos(), "make inside kernel loop allocates per row; hoist it out of the loop or reuse a scratch buffer")
					case "append":
						// An append outside a self-assignment builds a
						// fresh slice per row (discarded, passed as an
						// argument, or assigned elsewhere).
						p.Reportf(m.Pos(), "append result not stored back inside kernel loop allocates per row")
					}
					if calleeName(m) == "unboxConforming" {
						p.Reportf(m.Pos(), "unboxConforming inside kernel loop reboxes per row; classify once per batch or bounce the row outside the kernel")
					}
				}
			}
			return true
		})
	}
	inLoop(body, 0)
}

// builtinName returns the name of a builtin call target ("make",
// "append") or of the one-argument conversion to "string", or "".
func builtinName(call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	switch id.Name {
	case "make", "append":
		return id.Name
	case "string":
		if len(call.Args) == 1 {
			return id.Name
		}
	}
	return ""
}

// isSlotLiteral reports whether the composite builds a rows.Slot (seen
// as `rows.Slot{...}` from other packages or `Slot{...}` within
// package rows).
func isSlotLiteral(cl *ast.CompositeLit) bool {
	switch t := cl.Type.(type) {
	case *ast.SelectorExpr:
		pkg, ok := t.X.(*ast.Ident)
		return ok && pkg.Name == "rows" && t.Sel.Name == "Slot"
	case *ast.Ident:
		return t.Name == "Slot"
	}
	return false
}

// calleeName returns the called function's bare name for plain and
// selector calls ("" for anything else).
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// exprString renders an expression for syntactic identity comparison.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
