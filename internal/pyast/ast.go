package pyast

import (
	"strings"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() Pos
}

// Expr is an expression node. Every expression carries a type annotation
// slot that the inference pass fills in (§4.3: "typing the abstract syntax
// tree with the normal-case types").
type Expr interface {
	Node
	exprNode()
	// Type returns the inferred static type (zero Type before inference).
	Type() types.Type
	// SetType records the inferred static type.
	SetType(types.Type)
	// Num is the expression's number in its parse, 1..NumExprs of the
	// Function the parse produced; 0 for a node built outside the parser.
	// Analyses index per-expression facts by it and give unnumbered
	// nodes no facts.
	Num() int
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

type exprBase struct {
	P  Pos
	Ty types.Type
	N  int32 // parse-order number; see Expr.Num
}

func (b *exprBase) Pos() Pos             { return b.P }
func (b *exprBase) exprNode()            {}
func (b *exprBase) Type() types.Type     { return b.Ty }
func (b *exprBase) SetType(t types.Type) { b.Ty = t }
func (b *exprBase) Num() int             { return int(b.N) }

type stmtBase struct{ P Pos }

func (b *stmtBase) Pos() Pos  { return b.P }
func (b *stmtBase) stmtNode() {}

// ---- Expressions ----

// NumLit is an integer or float literal.
type NumLit struct {
	exprBase
	IsFloat bool
	I       int64
	F       float64
}

// StrLit is a string literal.
type StrLit struct {
	exprBase
	S string
}

// BoolLit is True or False.
type BoolLit struct {
	exprBase
	B bool
}

// NoneLit is None.
type NoneLit struct{ exprBase }

// Name is an identifier reference.
type Name struct {
	exprBase
	Ident string
	// Slot is the resolved frame slot, filled by the compiler; -1 until
	// resolution.
	Slot int
}

// BinOp is a binary arithmetic/bit operation (+ - * / // % ** & | ^ << >>).
type BinOp struct {
	exprBase
	Op          pyvalue.Op
	Left, Right Expr
}

// UnaryOp is -x, +x, ~x or not x (Op is OpSub, OpAdd, OpInvert or
// OpNot).
type UnaryOp struct {
	exprBase
	Op pyvalue.Op
	X  Expr
}

// Compare is a chained comparison a < b <= c (ops: == != < <= > >= in
// "not in" is "is" "is not").
type Compare struct {
	exprBase
	First Expr
	Ops   []pyvalue.Op
	Rest  []Expr
}

// BoolOp is "and"/"or" over two or more operands with short-circuiting.
type BoolOp struct {
	exprBase
	Op pyvalue.Op // OpAnd or OpOr
	Xs []Expr
}

// IfExpr is the ternary `a if cond else b`.
type IfExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// Call is a function or method call.
type Call struct {
	exprBase
	Fn   Expr
	Args []Expr
	// Kwargs are keyword arguments (rare in UDFs, used e.g. by
	// round(x, ndigits=2) style calls).
	KwNames []string
	KwArgs  []Expr
}

// Attr is attribute access x.name (usually a method reference).
type Attr struct {
	exprBase
	X    Expr
	Name string
}

// Subscript is x[index].
type Subscript struct {
	exprBase
	X     Expr
	Index Expr
	// RowIdx is the resolved column position when X is a row and Index is
	// a constant; -1 otherwise. Filled by the inference pass.
	RowIdx int
}

// Slice is x[lo:hi:step]; nil fields mean omitted bounds.
type Slice struct {
	exprBase
	X            Expr
	Lo, Hi, Step Expr
}

// TupleLit is (a, b, ...).
type TupleLit struct {
	exprBase
	Elts []Expr
}

// ListLit is [a, b, ...].
type ListLit struct {
	exprBase
	Elts []Expr
}

// DictLit is {k: v, ...}.
type DictLit struct {
	exprBase
	Keys, Vals []Expr
}

// ListComp is [expr for var in iter if cond] (single generator, optional
// single condition — the shape the paper's prototype supports).
type ListComp struct {
	exprBase
	Elt  Expr
	Var  string
	Iter Expr
	Cond Expr // may be nil
	// VarSlot is the loop variable's frame slot, filled by the compiler.
	VarSlot int
}

// Lambda is an anonymous function.
type Lambda struct {
	exprBase
	Params []string
	Body   Expr
}

// ---- Statements ----

// ExprStmt is a bare expression statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// Assign is `target = value`; Target is a Name, Subscript or TupleLit of
// Names (for unpacking).
type Assign struct {
	stmtBase
	Target Expr
	Value  Expr
}

// AugAssign is `target op= value` (e.g. +=).
type AugAssign struct {
	stmtBase
	Target Expr
	Op     pyvalue.Op // the arithmetic op without '='
	Value  Expr
	// Ty is the type of `target op value`, set by type inference.
	Ty types.Type
}

// If is an if/elif/else chain; elifs are nested Ifs in Else.
type If struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
	// ThenTaken/ElseTaken count sample-trace visits (§4.2 branch
	// statistics, used for pruning decisions). Updated atomically: one
	// parsed AST may run on several executor threads at once.
	ThenTaken, ElseTaken int64
}

// For is `for var in iter: body` (single target or tuple target).
type For struct {
	stmtBase
	Var  Expr // Name or TupleLit of Names
	Iter Expr
	Body []Stmt
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// Return is a return statement; X may be nil (returns None).
type Return struct {
	stmtBase
	X Expr
}

// Pass is a no-op.
type Pass struct{ stmtBase }

// Break breaks the innermost loop.
type Break struct{ stmtBase }

// Continue continues the innermost loop.
type Continue struct{ stmtBase }

// FuncDef is `def name(params): body`.
type FuncDef struct {
	stmtBase
	Name   string
	Params []string
	Body   []Stmt
}

// Function is the normalized form of a UDF: either a lambda (single
// expression body, wrapped in an implicit Return) or a def with a
// statement body. It is what the rest of the system consumes.
type Function struct {
	Name   string // "" for lambdas
	Params []string
	Body   []Stmt
	Source string
	// NumExprs bounds the expression numbers of Body: every node the
	// parse built has Num in 1..NumExprs. Zero for a Function whose body
	// was not built by ParseUDF.
	NumExprs int
}

// NumLocals reports an upper bound on distinct local variables (params
// included), used to size frames. It walks the body collecting assigned
// names.
func (f *Function) NumLocals() int {
	names := map[string]bool{}
	for _, p := range f.Params {
		names[p] = true
	}
	collectTarget := func(t Expr) {
		switch t := t.(type) {
		case *Name:
			names[t.Ident] = true
		case *TupleLit:
			for _, e := range t.Elts {
				if n, ok := e.(*Name); ok {
					names[n.Ident] = true
				}
			}
		}
	}
	InspectStmts(f.Body, func(n Node) bool {
		switch n := n.(type) {
		case *Assign:
			collectTarget(n.Target)
		case *AugAssign:
			collectTarget(n.Target)
		case *For:
			collectTarget(n.Var)
		case *ListComp:
			names[n.Var] = true
		}
		return true
	})
	return len(names)
}

// Inspect walks the AST rooted at n in depth-first order, calling f for
// each node. If f returns false for a node, its children are skipped.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *BinOp:
		Inspect(n.Left, f)
		Inspect(n.Right, f)
	case *UnaryOp:
		Inspect(n.X, f)
	case *Compare:
		Inspect(n.First, f)
		for _, e := range n.Rest {
			Inspect(e, f)
		}
	case *BoolOp:
		for _, e := range n.Xs {
			Inspect(e, f)
		}
	case *IfExpr:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *Call:
		Inspect(n.Fn, f)
		for _, a := range n.Args {
			Inspect(a, f)
		}
		for _, a := range n.KwArgs {
			Inspect(a, f)
		}
	case *Attr:
		Inspect(n.X, f)
	case *Subscript:
		Inspect(n.X, f)
		Inspect(n.Index, f)
	case *Slice:
		Inspect(n.X, f)
		if n.Lo != nil {
			Inspect(n.Lo, f)
		}
		if n.Hi != nil {
			Inspect(n.Hi, f)
		}
		if n.Step != nil {
			Inspect(n.Step, f)
		}
	case *TupleLit:
		for _, e := range n.Elts {
			Inspect(e, f)
		}
	case *ListLit:
		for _, e := range n.Elts {
			Inspect(e, f)
		}
	case *DictLit:
		for i := range n.Keys {
			Inspect(n.Keys[i], f)
			Inspect(n.Vals[i], f)
		}
	case *ListComp:
		Inspect(n.Iter, f)
		Inspect(n.Elt, f)
		if n.Cond != nil {
			Inspect(n.Cond, f)
		}
	case *Lambda:
		Inspect(n.Body, f)
	case *ExprStmt:
		Inspect(n.X, f)
	case *Assign:
		Inspect(n.Target, f)
		Inspect(n.Value, f)
	case *AugAssign:
		Inspect(n.Target, f)
		Inspect(n.Value, f)
	case *If:
		Inspect(n.Cond, f)
		for _, s := range n.Then {
			Inspect(s, f)
		}
		for _, s := range n.Else {
			Inspect(s, f)
		}
	case *For:
		Inspect(n.Var, f)
		Inspect(n.Iter, f)
		for _, s := range n.Body {
			Inspect(s, f)
		}
	case *While:
		Inspect(n.Cond, f)
		for _, s := range n.Body {
			Inspect(s, f)
		}
	case *Return:
		if n.X != nil {
			Inspect(n.X, f)
		}
	case *FuncDef:
		for _, s := range n.Body {
			Inspect(s, f)
		}
	}
}

// InspectStmts walks each statement in ss.
func InspectStmts(ss []Stmt, f func(Node) bool) {
	for _, s := range ss {
		Inspect(s, f)
	}
}

// Dump renders a compact s-expression form of the AST, for tests and
// debugging.
func Dump(n Node) string {
	var sb strings.Builder
	dump(&sb, n)
	return sb.String()
}

func dump(sb *strings.Builder, n Node) {
	switch n := n.(type) {
	case *NumLit:
		if n.IsFloat {
			sb.WriteString("float")
		} else {
			sb.WriteString("int")
		}
	case *StrLit:
		sb.WriteString("str")
	case *BoolLit:
		sb.WriteString("bool")
	case *NoneLit:
		sb.WriteString("None")
	case *Name:
		sb.WriteString(n.Ident)
	case *BinOp:
		sb.WriteString("(" + n.Op.String() + " ")
		dump(sb, n.Left)
		sb.WriteString(" ")
		dump(sb, n.Right)
		sb.WriteString(")")
	case *UnaryOp:
		sb.WriteString("(" + n.Op.String() + " ")
		dump(sb, n.X)
		sb.WriteString(")")
	case *Compare:
		sb.WriteString("(cmp ")
		dump(sb, n.First)
		for i, op := range n.Ops {
			sb.WriteString(" " + op.String() + " ")
			dump(sb, n.Rest[i])
		}
		sb.WriteString(")")
	case *BoolOp:
		sb.WriteString("(" + n.Op.String())
		for _, x := range n.Xs {
			sb.WriteString(" ")
			dump(sb, x)
		}
		sb.WriteString(")")
	case *IfExpr:
		sb.WriteString("(ifexpr ")
		dump(sb, n.Cond)
		sb.WriteString(" ")
		dump(sb, n.Then)
		sb.WriteString(" ")
		dump(sb, n.Else)
		sb.WriteString(")")
	case *Call:
		sb.WriteString("(call ")
		dump(sb, n.Fn)
		for _, a := range n.Args {
			sb.WriteString(" ")
			dump(sb, a)
		}
		sb.WriteString(")")
	case *Attr:
		sb.WriteString("(attr ")
		dump(sb, n.X)
		sb.WriteString(" " + n.Name + ")")
	case *Subscript:
		sb.WriteString("(sub ")
		dump(sb, n.X)
		sb.WriteString(" ")
		dump(sb, n.Index)
		sb.WriteString(")")
	case *Slice:
		sb.WriteString("(slice ")
		dump(sb, n.X)
		sb.WriteString(")")
	case *TupleLit:
		sb.WriteString("(tuple")
		for _, e := range n.Elts {
			sb.WriteString(" ")
			dump(sb, e)
		}
		sb.WriteString(")")
	case *ListLit:
		sb.WriteString("(list")
		for _, e := range n.Elts {
			sb.WriteString(" ")
			dump(sb, e)
		}
		sb.WriteString(")")
	case *DictLit:
		sb.WriteString("(dict)")
	case *ListComp:
		sb.WriteString("(listcomp " + n.Var + " ")
		dump(sb, n.Iter)
		sb.WriteString(" ")
		dump(sb, n.Elt)
		sb.WriteString(")")
	case *Lambda:
		sb.WriteString("(lambda (" + strings.Join(n.Params, " ") + ") ")
		dump(sb, n.Body)
		sb.WriteString(")")
	case *ExprStmt:
		dump(sb, n.X)
	case *Assign:
		sb.WriteString("(= ")
		dump(sb, n.Target)
		sb.WriteString(" ")
		dump(sb, n.Value)
		sb.WriteString(")")
	case *AugAssign:
		sb.WriteString("(" + n.Op.String() + "= ")
		dump(sb, n.Target)
		sb.WriteString(" ")
		dump(sb, n.Value)
		sb.WriteString(")")
	case *If:
		sb.WriteString("(if ")
		dump(sb, n.Cond)
		sb.WriteString(" (then")
		for _, s := range n.Then {
			sb.WriteString(" ")
			dump(sb, s)
		}
		sb.WriteString(")")
		if len(n.Else) > 0 {
			sb.WriteString(" (else")
			for _, s := range n.Else {
				sb.WriteString(" ")
				dump(sb, s)
			}
			sb.WriteString(")")
		}
		sb.WriteString(")")
	case *For:
		sb.WriteString("(for ")
		dump(sb, n.Var)
		sb.WriteString(" ")
		dump(sb, n.Iter)
		for _, s := range n.Body {
			sb.WriteString(" ")
			dump(sb, s)
		}
		sb.WriteString(")")
	case *While:
		sb.WriteString("(while ")
		dump(sb, n.Cond)
		for _, s := range n.Body {
			sb.WriteString(" ")
			dump(sb, s)
		}
		sb.WriteString(")")
	case *Return:
		sb.WriteString("(return")
		if n.X != nil {
			sb.WriteString(" ")
			dump(sb, n.X)
		}
		sb.WriteString(")")
	case *Pass:
		sb.WriteString("(pass)")
	case *Break:
		sb.WriteString("(break)")
	case *Continue:
		sb.WriteString("(continue)")
	case *FuncDef:
		sb.WriteString("(def " + n.Name + " (" + strings.Join(n.Params, " ") + ")")
		for _, s := range n.Body {
			sb.WriteString(" ")
			dump(sb, s)
		}
		sb.WriteString(")")
	default:
		sb.WriteString("?")
	}
}
