// Package pyast implements a lexer, parser and AST for the subset of
// Python that Tuplex pipelines use in their UDFs (lambdas and small
// multi-statement functions over rows: string wrangling, arithmetic,
// control flow, comprehensions, regex and formatting calls).
//
// The subset is deliberately scoped to what the paper's pipelines
// (Appendix A) and similar data-wrangling UDFs need; anything outside the
// subset parses into an error that routes the UDF to the interpreter-only
// fallback path.
package pyast

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokNewline
	TokIndent
	TokDedent
	TokName
	TokInt
	TokFloat
	TokString
	TokOp      // operators and punctuation; Tok.Text holds the exact spelling
	TokKeyword // Python keywords; Tok.Text holds the keyword
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokNewline:
		return "NEWLINE"
	case TokIndent:
		return "INDENT"
	case TokDedent:
		return "DEDENT"
	case TokName:
		return "NAME"
	case TokInt:
		return "INT"
	case TokFloat:
		return "FLOAT"
	case TokString:
		return "STRING"
	case TokOp:
		return "OP"
	case TokKeyword:
		return "KEYWORD"
	default:
		return fmt.Sprintf("TokKind(%d)", uint8(k))
	}
}

// Pos is a 1-based source position.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Tok is one lexical token. Operators and keywords also carry an op
// code, so the parser tests them without comparing strings.
type Tok struct {
	// Text is the spelling of a name, keyword, operator or number, and
	// the decoded value of a string literal. Every spelling and every
	// string literal without escapes is a substring of the source.
	Text      string
	Line, Col int32
	Kind      TokKind
	op        opcode
}

// Pos is the token's source position.
func (t Tok) Pos() Pos { return Pos{Line: int(t.Line), Col: int(t.Col)} }

func (t Tok) String() string {
	if t.Text != "" && t.Kind != TokString {
		return fmt.Sprintf("%s(%q)@%s", t.Kind, t.Text, t.Pos())
	}
	return fmt.Sprintf("%s@%s", t.Kind, t.Pos())
}

// opcode names an operator or keyword token; 0 is neither.
type opcode uint8

const (
	opNone opcode = iota

	// Binary operators, in the order of binPrec.
	opBitOr    // |
	opBitXor   // ^
	opBitAnd   // &
	opLShift   // <<
	opRShift   // >>
	opAdd      // +
	opSub      // -
	opMul      // *
	opDiv      // /
	opFloorDiv // //
	opMod      // %
	opPow      // **

	opInvert // ~
	opEq     // ==
	opNe     // !=
	opLt     // <
	opLe     // <=
	opGt     // >
	opGe     // >=
	opAssign // =
	opArrow  // ->

	// Augmented assignments.
	opAddEq      // +=
	opSubEq      // -=
	opMulEq      // *=
	opDivEq      // /=
	opFloorDivEq // //=
	opModEq      // %=
	opPowEq      // **=
	opAndEq      // &=
	opOrEq       // |=
	opXorEq      // ^=
	opLShiftEq   // <<=
	opRShiftEq   // >>=

	// Punctuation.
	opLParen   // (
	opRParen   // )
	opLBracket // [
	opRBracket // ]
	opLBrace   // {
	opRBrace   // }
	opComma    // ,
	opColon    // :
	opDot      // .
	opSemi     // ;
	opAt       // @

	// Keywords.
	kwFalse
	kwNone
	kwTrue
	kwAnd
	kwDef
	kwElif
	kwElse
	kwFor
	kwIf
	kwIn
	kwIs
	kwLambda
	kwNot
	kwOr
	kwPass
	kwReturn
	kwWhile
	kwBreak
	kwContinue

	numOpcodes
)

// opText spells every op code; the parser's operator strings and its
// "expected ..." messages come from here.
var opText = [numOpcodes]string{
	opBitOr: "|", opBitXor: "^", opBitAnd: "&", opLShift: "<<", opRShift: ">>",
	opAdd: "+", opSub: "-", opMul: "*", opDiv: "/", opFloorDiv: "//", opMod: "%", opPow: "**",
	opInvert: "~", opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opAssign: "=", opArrow: "->",
	opAddEq: "+=", opSubEq: "-=", opMulEq: "*=", opDivEq: "/=", opFloorDivEq: "//=",
	opModEq: "%=", opPowEq: "**=", opAndEq: "&=", opOrEq: "|=", opXorEq: "^=",
	opLShiftEq: "<<=", opRShiftEq: ">>=",
	opLParen: "(", opRParen: ")", opLBracket: "[", opRBracket: "]", opLBrace: "{", opRBrace: "}",
	opComma: ",", opColon: ":", opDot: ".", opSemi: ";", opAt: "@",
	kwFalse: "False", kwNone: "None", kwTrue: "True", kwAnd: "and", kwDef: "def",
	kwElif: "elif", kwElse: "else", kwFor: "for", kwIf: "if", kwIn: "in", kwIs: "is",
	kwLambda: "lambda", kwNot: "not", kwOr: "or", kwPass: "pass", kwReturn: "return",
	kwWhile: "while", kwBreak: "break", kwContinue: "continue",
}

// keyword returns the op code of a Python keyword, or opNone.
func keyword(s string) opcode {
	switch s {
	case "False":
		return kwFalse
	case "None":
		return kwNone
	case "True":
		return kwTrue
	case "and":
		return kwAnd
	case "def":
		return kwDef
	case "elif":
		return kwElif
	case "else":
		return kwElse
	case "for":
		return kwFor
	case "if":
		return kwIf
	case "in":
		return kwIn
	case "is":
		return kwIs
	case "lambda":
		return kwLambda
	case "not":
		return kwNot
	case "or":
		return kwOr
	case "pass":
		return kwPass
	case "return":
		return kwReturn
	case "while":
		return kwWhile
	case "break":
		return kwBreak
	case "continue":
		return kwContinue
	}
	return opNone
}

// Error is a lexing/parsing error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("python:%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
