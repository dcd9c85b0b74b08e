package pyast

import (
	"strconv"
	"strings"
	"sync"

	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// parser is a recursive-descent parser over the token stream. Binary
// operators parse by precedence climbing over binPrec; operators and
// keywords are matched by op code.
type parser struct {
	toks  []Tok
	pos   int
	nexpr int32 // expressions numbered so far
}

// node starts the base of a new expression node at pos, numbering it.
func (p *parser) node(pos Pos) exprBase {
	p.nexpr++
	return exprBase{P: pos, N: p.nexpr}
}

// ParseUDF parses UDF source code: either a single lambda expression or
// one or more def statements (helper functions followed by the UDF; the
// last def is the entry point, matching how the paper's pipelines pass a
// named function). It returns the entry function in normalized form.
func ParseUDF(src string) (*Function, error) {
	stmts, nexpr, err := parseModule(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, errf(Pos{1, 1}, "empty UDF source")
	}
	// A single expression statement that is a lambda.
	if es, ok := stmts[len(stmts)-1].(*ExprStmt); ok && len(stmts) == 1 {
		if lam, ok := es.X.(*Lambda); ok {
			return &Function{
				Params:   lam.Params,
				Body:     []Stmt{&Return{stmtBase: stmtBase{P: lam.Pos()}, X: lam.Body}},
				Source:   src,
				NumExprs: nexpr,
			}, nil
		}
		return nil, errf(es.Pos(), "UDF must be a lambda or def, got a bare expression")
	}
	fd, ok := stmts[len(stmts)-1].(*FuncDef)
	if !ok {
		return nil, errf(stmts[len(stmts)-1].Pos(), "UDF must be a lambda or end with a def")
	}
	if len(stmts) > 1 {
		return nil, errf(stmts[0].Pos(), "UDF source must contain exactly one top-level definition")
	}
	return &Function{Name: fd.Name, Params: fd.Params, Body: fd.Body, Source: src, NumExprs: nexpr}, nil
}

// ParseModule parses a sequence of top-level statements.
func ParseModule(src string) ([]Stmt, error) {
	stmts, _, err := parseModule(src)
	return stmts, err
}

// tokBufs recycles parseModule's token buffers. No AST node keeps a
// token, so the buffer is garbage once the parse returns; it is cleared
// before it goes back, as its tokens alias the source.
var tokBufs = sync.Pool{New: func() any { return new([]Tok) }}

// parseModule parses src's statements and counts the expressions they
// hold. It lexes the whole source before parsing any of it, so a lex
// error wins over a parse error earlier in the source.
func parseModule(src string) ([]Stmt, int, error) {
	buf := tokBufs.Get().(*[]Tok)
	toks, err := lex(src, *buf)
	defer func() {
		clear(toks)
		*buf = toks[:0]
		tokBufs.Put(buf)
	}()
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for !p.at(TokEOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, 0, err
		}
		stmts = append(stmts, s)
	}
	return stmts, int(p.nexpr), nil
}

// ParseExprString parses a single expression (used by tests and the
// inference tracer).
func ParseExprString(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExprOrTuple()
	if err != nil {
		return nil, err
	}
	p.accept(TokNewline)
	if !p.at(TokEOF) {
		return nil, errf(p.cur().Pos(), "trailing tokens after expression: %s", p.cur())
	}
	return e, nil
}

func (p *parser) cur() *Tok  { return &p.toks[p.pos] }
func (p *parser) next() *Tok { t := &p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind) bool { return p.toks[p.pos].Kind == kind }

// atOp reports whether the current token is the operator or keyword op;
// op codes never collide, so the token kind needs no test.
func (p *parser) atOp(op opcode) bool { return p.toks[p.pos].op == op }

// accept consumes the current token if it is of the kind.
func (p *parser) accept(kind TokKind) bool {
	if p.toks[p.pos].Kind == kind {
		p.pos++
		return true
	}
	return false
}

// acceptOp consumes the current token if it is the operator or keyword.
func (p *parser) acceptOp(op opcode) bool {
	if p.toks[p.pos].op == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op opcode) error {
	if !p.acceptOp(op) {
		return errf(p.cur().Pos(), "expected %q, got %s", opText[op], p.cur())
	}
	return nil
}

func (p *parser) skipNewlines() {
	for p.accept(TokNewline) {
	}
}

// ---- statements ----

func (p *parser) parseStmt() (Stmt, error) {
	p.skipNewlines()
	t := p.cur()
	if t.Kind == TokKeyword {
		pos := t.Pos()
		switch t.op {
		case kwDef:
			return p.parseDef()
		case kwIf:
			return p.parseIf()
		case kwFor:
			return p.parseFor()
		case kwWhile:
			return p.parseWhile()
		case kwReturn:
			p.next()
			r := &Return{stmtBase: stmtBase{P: pos}}
			if !p.at(TokNewline) && !p.at(TokEOF) && !p.at(TokDedent) {
				x, err := p.parseExprOrTuple()
				if err != nil {
					return nil, err
				}
				r.X = x
			}
			p.accept(TokNewline)
			return r, nil
		case kwPass:
			p.next()
			p.accept(TokNewline)
			return &Pass{stmtBase{P: pos}}, nil
		case kwBreak:
			p.next()
			p.accept(TokNewline)
			return &Break{stmtBase{P: pos}}, nil
		case kwContinue:
			p.next()
			p.accept(TokNewline)
			return &Continue{stmtBase{P: pos}}, nil
		}
	}
	return p.parseSimpleStmt()
}

// tokOps maps each operator token to the operator it applies, and each
// augmented assignment of the subset to its arithmetic operator (the
// bitwise ones are not in the subset).
var tokOps = [numOpcodes]pyvalue.Op{
	opBitOr: pyvalue.OpBitOr, opBitXor: pyvalue.OpBitXor, opBitAnd: pyvalue.OpBitAnd,
	opLShift: pyvalue.OpLShift, opRShift: pyvalue.OpRShift,
	opAdd: pyvalue.OpAdd, opSub: pyvalue.OpSub, opMul: pyvalue.OpMul, opDiv: pyvalue.OpDiv,
	opFloorDiv: pyvalue.OpFloorDiv, opMod: pyvalue.OpMod, opPow: pyvalue.OpPow, opInvert: pyvalue.OpInvert,
	opEq: pyvalue.OpEq, opNe: pyvalue.OpNe, opLt: pyvalue.OpLt, opLe: pyvalue.OpLe, opGt: pyvalue.OpGt, opGe: pyvalue.OpGe,
	opAddEq: pyvalue.OpAdd, opSubEq: pyvalue.OpSub, opMulEq: pyvalue.OpMul, opDivEq: pyvalue.OpDiv,
	opFloorDivEq: pyvalue.OpFloorDiv, opModEq: pyvalue.OpMod, opPowEq: pyvalue.OpPow,
	kwAnd: pyvalue.OpAnd, kwOr: pyvalue.OpOr, kwNot: pyvalue.OpNot, kwIn: pyvalue.OpIn, kwIs: pyvalue.OpIs,
}

func (p *parser) parseSimpleStmt() (Stmt, error) {
	pos := p.cur().Pos()
	lhs, err := p.parseExprOrTuple()
	if err != nil {
		return nil, err
	}
	// Augmented assignment.
	if t := p.cur().op; t >= opAddEq && t <= opRShiftEq && tokOps[t] != pyvalue.OpNone {
		op := tokOps[t]
		p.next()
		rhs, err := p.parseExprOrTuple()
		if err != nil {
			return nil, err
		}
		if err := checkAssignable(lhs); err != nil {
			return nil, err
		}
		p.accept(TokNewline)
		return &AugAssign{stmtBase: stmtBase{P: pos}, Target: lhs, Op: op, Value: rhs}, nil
	}
	if p.acceptOp(opAssign) {
		rhs, err := p.parseExprOrTuple()
		if err != nil {
			return nil, err
		}
		// Chained assignment a = b = expr is not in the subset.
		if p.atOp(opAssign) {
			return nil, errf(p.cur().Pos(), "chained assignment is not supported")
		}
		if err := checkAssignable(lhs); err != nil {
			return nil, err
		}
		p.accept(TokNewline)
		return &Assign{stmtBase: stmtBase{P: pos}, Target: lhs, Value: rhs}, nil
	}
	p.accept(TokNewline)
	return &ExprStmt{stmtBase: stmtBase{P: pos}, X: lhs}, nil
}

func checkAssignable(e Expr) error {
	switch e := e.(type) {
	case *Name, *Subscript:
		return nil
	case *TupleLit:
		for _, el := range e.Elts {
			if _, ok := el.(*Name); !ok {
				return errf(el.Pos(), "cannot assign to this expression")
			}
		}
		return nil
	default:
		return errf(e.Pos(), "cannot assign to this expression")
	}
}

func (p *parser) parseDef() (Stmt, error) {
	pos := p.cur().Pos()
	if err := p.expectOp(kwDef); err != nil {
		return nil, err
	}
	if !p.at(TokName) {
		return nil, errf(p.cur().Pos(), "expected function name, got %s", p.cur())
	}
	name := p.next().Text
	if err := p.expectOp(opLParen); err != nil {
		return nil, err
	}
	var params []string
	for !p.atOp(opRParen) {
		if !p.at(TokName) {
			return nil, errf(p.cur().Pos(), "expected parameter name, got %s", p.cur())
		}
		params = append(params, p.next().Text)
		if !p.acceptOp(opComma) {
			break
		}
	}
	if err := p.expectOp(opRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDef{stmtBase: stmtBase{P: pos}, Name: name, Params: params, Body: body}, nil
}

// parseBlock parses `: NEWLINE INDENT stmts DEDENT` or `: simple_stmt`.
func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expectOp(opColon); err != nil {
		return nil, err
	}
	if !p.accept(TokNewline) {
		// Inline suite: a single simple statement on the same line.
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []Stmt{s}, nil
	}
	if !p.accept(TokIndent) {
		return nil, errf(p.cur().Pos(), "expected an indented block, got %s", p.cur())
	}
	var stmts []Stmt
	for {
		p.skipNewlines()
		if p.accept(TokDedent) || p.at(TokEOF) {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if len(stmts) == 0 {
		return nil, errf(p.cur().Pos(), "empty block")
	}
	return stmts, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.cur().Pos()
	p.next() // if or elif
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{stmtBase: stmtBase{P: pos}, Cond: cond, Then: then}
	p.skipNewlines()
	if p.atOp(kwElif) {
		sub, err := p.parseIf()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{sub}
	} else if p.atOp(kwElse) {
		p.next()
		els, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.cur().Pos()
	p.next()
	target, err := p.parseForTarget()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(kwIn); err != nil {
		return nil, err
	}
	iter, err := p.parseExprOrTuple()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &For{stmtBase: stmtBase{P: pos}, Var: target, Iter: iter, Body: body}, nil
}

// parseForTarget parses `name` or `name, name, ...` loop targets.
func (p *parser) parseForTarget() (Expr, error) {
	pos := p.cur().Pos()
	if !p.at(TokName) {
		return nil, errf(pos, "expected loop variable, got %s", p.cur())
	}
	first := &Name{exprBase: p.node(pos), Ident: p.next().Text, Slot: -1}
	if !p.atOp(opComma) {
		return first, nil
	}
	elts := []Expr{first}
	for p.acceptOp(opComma) {
		if !p.at(TokName) {
			return nil, errf(p.cur().Pos(), "expected loop variable, got %s", p.cur())
		}
		elts = append(elts, &Name{exprBase: p.node(p.cur().Pos()), Ident: p.next().Text, Slot: -1})
	}
	return &TupleLit{exprBase: p.node(pos), Elts: elts}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.cur().Pos()
	p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{stmtBase: stmtBase{P: pos}, Cond: cond, Body: body}, nil
}

// ---- expressions ----

// parseExprOrTuple parses expr (',' expr)* — a possibly parenthesis-free
// tuple, as in `return a, b`.
func (p *parser) parseExprOrTuple() (Expr, error) {
	pos := p.cur().Pos()
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atOp(opComma) {
		return first, nil
	}
	elts := []Expr{first}
	for p.acceptOp(opComma) {
		if t := p.cur(); t.Kind == TokNewline || t.Kind == TokEOF ||
			t.op == opRParen || t.op == opRBracket || t.op == opRBrace || t.op == opAssign {
			break
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elts = append(elts, e)
	}
	return &TupleLit{exprBase: p.node(pos), Elts: elts}, nil
}

// parseExpr parses a single expression (ternary level).
func (p *parser) parseExpr() (Expr, error) {
	if p.atOp(kwLambda) {
		return p.parseLambda()
	}
	then, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.atOp(kwIf) {
		pos := p.next().Pos()
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(kwElse); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &IfExpr{exprBase: p.node(pos), Cond: cond, Then: then, Else: els}, nil
	}
	return then, nil
}

func (p *parser) parseLambda() (Expr, error) {
	pos := p.next().Pos()
	var params []string
	for p.at(TokName) {
		params = append(params, p.next().Text)
		if !p.acceptOp(opComma) {
			break
		}
	}
	if err := p.expectOp(opColon); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Lambda{exprBase: p.node(pos), Params: params, Body: body}, nil
}

// parseOr and parseAnd parse `or` and `and` chains into one BoolOp.
func (p *parser) parseOr() (Expr, error) {
	return p.parseBoolChain(kwOr, p.parseAnd)
}

func (p *parser) parseAnd() (Expr, error) {
	return p.parseBoolChain(kwAnd, p.parseNot)
}

func (p *parser) parseBoolChain(kw opcode, sub func() (Expr, error)) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	if !p.atOp(kw) {
		return x, nil
	}
	xs := []Expr{x}
	pos := p.cur().Pos()
	for p.acceptOp(kw) {
		y, err := sub()
		if err != nil {
			return nil, err
		}
		xs = append(xs, y)
	}
	return &BoolOp{exprBase: p.node(pos), Op: tokOps[kw], Xs: xs}, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atOp(kwNot) {
		pos := p.next().Pos()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{exprBase: p.node(pos), Op: pyvalue.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	first, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	var ops []pyvalue.Op
	var rest []Expr
	pos := p.cur().Pos()
	for {
		var op pyvalue.Op
		switch t := p.cur(); t.op {
		case opEq, opNe, opLt, opLe, opGt, opGe, kwIn:
			op = tokOps[t.op]
			p.pos++
		case kwNot:
			// "not in"
			p.pos++
			if err := p.expectOp(kwIn); err != nil {
				return nil, err
			}
			op = pyvalue.OpNotIn
		case kwIs:
			p.pos++
			op = pyvalue.OpIs
			if p.acceptOp(kwNot) {
				op = pyvalue.OpIsNot
			}
		default:
			if len(ops) == 0 {
				return first, nil
			}
			return &Compare{exprBase: p.node(pos), First: first, Ops: ops, Rest: rest}, nil
		}
		y, err := p.parseBinary(1)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		rest = append(rest, y)
	}
}

// binPrec is the binding power of each binary operator below the
// comparisons, loosest first: | ^ & (<< >>) (+ -) (* / // %). Zero
// marks a token that is not one of them; ** binds tighter than unary
// minus and parses in parsePower.
var binPrec = [numOpcodes]uint8{
	opBitOr: 1, opBitXor: 2, opBitAnd: 3, opLShift: 4, opRShift: 4,
	opAdd: 5, opSub: 5, opMul: 6, opDiv: 6, opFloorDiv: 6, opMod: 6,
}

// parseBinary parses a left-associative chain of binary operators that
// bind at least as tightly as minPrec, by precedence climbing.
func (p *parser) parseBinary(minPrec uint8) (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec := binPrec[t.op]
		if prec == 0 || prec < minPrec {
			return x, nil
		}
		p.pos++
		y, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		x = &BinOp{exprBase: p.node(t.Pos()), Op: tokOps[t.op], Left: x, Right: y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if op := p.cur().op; op == opSub || op == opAdd || op == opInvert {
		pos := p.next().Pos()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{exprBase: p.node(pos), Op: tokOps[op], X: x}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	x, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.atOp(opPow) {
		pos := p.next().Pos()
		// ** is right-associative and binds tighter than unary on the
		// right: 2**-1 is valid.
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinOp{exprBase: p.node(pos), Op: pyvalue.OpPow, Left: x, Right: y}, nil
	}
	return x, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().op {
		case opDot:
			pos := p.next().Pos()
			if !p.at(TokName) {
				return nil, errf(p.cur().Pos(), "expected attribute name, got %s", p.cur())
			}
			x = &Attr{exprBase: p.node(pos), X: x, Name: p.next().Text}
		case opLParen:
			pos := p.next().Pos()
			call := &Call{Fn: x}
			for !p.atOp(opRParen) {
				// Keyword argument?
				if p.at(TokName) && p.toks[p.pos+1].op == opAssign {
					kw := p.next().Text
					p.next() // '='
					v, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.KwNames = append(call.KwNames, kw)
					call.KwArgs = append(call.KwArgs, v)
				} else {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
				}
				if !p.acceptOp(opComma) {
					break
				}
			}
			if err := p.expectOp(opRParen); err != nil {
				return nil, err
			}
			call.exprBase = p.node(pos)
			x = call
		case opLBracket:
			pos := p.next().Pos()
			sub, err := p.parseSubscriptInner(x, pos)
			if err != nil {
				return nil, err
			}
			x = sub
		default:
			return x, nil
		}
	}
}

// parseSubscriptInner parses the inside of x[...]: a plain index or a
// slice lo:hi(:step) with any part omitted.
func (p *parser) parseSubscriptInner(x Expr, pos Pos) (Expr, error) {
	var lo, hi, step Expr
	var err error
	if !p.atOp(opColon) {
		lo, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(opRBracket) {
			return &Subscript{exprBase: p.node(pos), X: x, Index: lo, RowIdx: -1}, nil
		}
	}
	if err := p.expectOp(opColon); err != nil {
		return nil, err
	}
	if !p.atOp(opRBracket) && !p.atOp(opColon) {
		hi, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptOp(opColon) {
		if !p.atOp(opRBracket) {
			step, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectOp(opRBracket); err != nil {
		return nil, err
	}
	return &Slice{exprBase: p.node(pos), X: x, Lo: lo, Hi: hi, Step: step}, nil
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		text := strings.ReplaceAll(t.Text, "_", "")
		var v int64
		var err error
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			v, err = strconv.ParseInt(text[2:], 16, 64)
		} else {
			v, err = strconv.ParseInt(text, 10, 64)
		}
		if err != nil {
			return nil, errf(t.Pos(), "bad integer literal %q", t.Text)
		}
		return &NumLit{exprBase: p.node(t.Pos()), I: v}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(strings.ReplaceAll(t.Text, "_", ""), 64)
		if err != nil {
			return nil, errf(t.Pos(), "bad float literal %q", t.Text)
		}
		return &NumLit{exprBase: p.node(t.Pos()), IsFloat: true, F: v}, nil
	case TokString:
		p.next()
		s := t.Text
		// Adjacent string literal concatenation: 'a' 'b' == 'ab'.
		for p.at(TokString) {
			s += p.next().Text
		}
		return &StrLit{exprBase: p.node(t.Pos()), S: s}, nil
	case TokName:
		p.next()
		return &Name{exprBase: p.node(t.Pos()), Ident: t.Text, Slot: -1}, nil
	case TokKeyword:
		switch t.op {
		case kwNone:
			p.next()
			return &NoneLit{p.node(t.Pos())}, nil
		case kwTrue:
			p.next()
			return &BoolLit{exprBase: p.node(t.Pos()), B: true}, nil
		case kwFalse:
			p.next()
			return &BoolLit{exprBase: p.node(t.Pos()), B: false}, nil
		case kwLambda:
			return p.parseLambda()
		}
	case TokOp:
		switch t.op {
		case opLParen:
			p.next()
			if p.acceptOp(opRParen) {
				return &TupleLit{exprBase: p.node(t.Pos())}, nil
			}
			e, err := p.parseExprOrTuple()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(opRParen); err != nil {
				return nil, err
			}
			return e, nil
		case opLBracket:
			return p.parseListOrComp()
		case opLBrace:
			return p.parseDict()
		}
	}
	return nil, errf(t.Pos(), "unexpected token %s", t)
}

func (p *parser) parseListOrComp() (Expr, error) {
	pos := p.next().Pos() // '['
	if p.acceptOp(opRBracket) {
		return &ListLit{exprBase: p.node(pos)}, nil
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptOp(kwFor) {
		if !p.at(TokName) {
			return nil, errf(p.cur().Pos(), "expected comprehension variable, got %s", p.cur())
		}
		v := p.next().Text
		if err := p.expectOp(kwIn); err != nil {
			return nil, err
		}
		// Python's grammar uses or_test here (no bare ternary), so the
		// comprehension's own `if` is not swallowed as a conditional
		// expression.
		iter, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		var cond Expr
		if p.acceptOp(kwIf) {
			cond, err = p.parseOr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(opRBracket); err != nil {
			return nil, err
		}
		return &ListComp{exprBase: p.node(pos), Elt: first, Var: v, Iter: iter, Cond: cond, VarSlot: -1}, nil
	}
	elts := []Expr{first}
	for p.acceptOp(opComma) {
		if p.atOp(opRBracket) {
			break
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elts = append(elts, e)
	}
	if err := p.expectOp(opRBracket); err != nil {
		return nil, err
	}
	return &ListLit{exprBase: p.node(pos), Elts: elts}, nil
}

func (p *parser) parseDict() (Expr, error) {
	pos := p.next().Pos() // '{'
	d := &DictLit{}
	for !p.atOp(opRBrace) {
		k, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(opColon); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Keys = append(d.Keys, k)
		d.Vals = append(d.Vals, v)
		if !p.acceptOp(opComma) {
			break
		}
	}
	if err := p.expectOp(opRBrace); err != nil {
		return nil, err
	}
	d.exprBase = p.node(pos)
	return d, nil
}
