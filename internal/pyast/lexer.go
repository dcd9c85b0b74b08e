package pyast

import (
	"strings"
)

// lexer tokenizes Python source with indentation tracking. It follows the
// CPython tokenizer's rules for the constructs in our subset: logical
// lines, INDENT/DEDENT, implicit line joining inside brackets, explicit
// joining with a trailing backslash, comments, and string literals with
// single/double quotes and escapes.
type lexer struct {
	src     string
	off     int
	line    int
	col     int
	indents []int
	pending []Tok // queued INDENT/DEDENT tokens
	depth   int   // bracket nesting depth ([({ vs )}])
	atBOL   bool  // at beginning of a logical line
	emitted bool  // some non-NEWLINE token emitted on current line
}

func newLexer(src string) *lexer {
	// Normalize line endings so the indentation logic sees \n only.
	src = strings.ReplaceAll(src, "\r\n", "\n")
	src = strings.ReplaceAll(src, "\r", "\n")
	return &lexer{src: src, line: 1, col: 1, indents: []int{0}, atBOL: true}
}

// Lex tokenizes the whole source.
func Lex(src string) ([]Tok, error) {
	lx := newLexer(src)
	// UDF source runs about two bytes per token; reserving that up front
	// spares the slice its regrowth copies.
	toks := make([]Tok, 0, len(src)/2+8)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) peekByteAt(d int) byte {
	if lx.off+d >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+d]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) next() (Tok, error) {
	if len(lx.pending) > 0 {
		t := lx.pending[0]
		lx.pending = lx.pending[1:]
		return t, nil
	}

	if lx.atBOL && lx.depth == 0 {
		if tok, handled, err := lx.handleIndentation(); err != nil {
			return Tok{}, err
		} else if handled {
			return tok, nil
		}
	}

	lx.skipSpacesAndComments()

	pos := lx.pos()
	c := lx.peekByte()

	switch {
	case c == 0:
		// Close the final logical line and drain indents.
		if lx.emitted {
			lx.emitted = false
			return Tok{Kind: TokNewline, Pos: pos}, nil
		}
		for len(lx.indents) > 1 {
			lx.indents = lx.indents[:len(lx.indents)-1]
			lx.pending = append(lx.pending, Tok{Kind: TokDedent, Pos: pos})
		}
		lx.pending = append(lx.pending, Tok{Kind: TokEOF, Pos: pos})
		t := lx.pending[0]
		lx.pending = lx.pending[1:]
		return t, nil

	case c == '\n':
		lx.advance()
		if lx.depth > 0 || !lx.emitted {
			// Implicit joining inside brackets; blank lines produce no
			// NEWLINE either.
			lx.atBOL = lx.depth == 0
			return lx.next()
		}
		lx.atBOL = true
		lx.emitted = false
		return Tok{Kind: TokNewline, Pos: pos}, nil

	case c == '\\' && lx.peekByteAt(1) == '\n':
		lx.advance()
		lx.advance()
		return lx.next()

	case isDigit(c) || (c == '.' && isDigit(lx.peekByteAt(1))):
		return lx.lexNumber()

	case c == '\'' || c == '"':
		return lx.lexString(c)

	case isNameStart(c):
		return lx.lexName()

	default:
		return lx.lexOp()
	}
}

// handleIndentation measures leading whitespace of a fresh logical line
// and emits INDENT/DEDENT tokens as needed. It reports handled=false when
// the line is blank or comment-only (no tokens emitted).
func (lx *lexer) handleIndentation() (Tok, bool, error) {
	width := 0
	for {
		c := lx.peekByte()
		if c == ' ' {
			width++
			lx.advance()
		} else if c == '\t' {
			width += 8 - width%8
			lx.advance()
		} else {
			break
		}
	}
	c := lx.peekByte()
	if c == '\n' || c == '#' || c == 0 {
		// Blank/comment-only line: no indentation effect.
		lx.atBOL = false
		return Tok{}, false, nil
	}
	lx.atBOL = false
	pos := lx.pos()
	cur := lx.indents[len(lx.indents)-1]
	switch {
	case width > cur:
		lx.indents = append(lx.indents, width)
		return Tok{Kind: TokIndent, Pos: pos}, true, nil
	case width < cur:
		var toks []Tok
		for len(lx.indents) > 1 && lx.indents[len(lx.indents)-1] > width {
			lx.indents = lx.indents[:len(lx.indents)-1]
			toks = append(toks, Tok{Kind: TokDedent, Pos: pos})
		}
		if lx.indents[len(lx.indents)-1] != width {
			return Tok{}, false, errf(pos, "unindent does not match any outer indentation level")
		}
		lx.pending = append(lx.pending, toks[1:]...)
		return toks[0], true, nil
	default:
		return Tok{}, false, nil
	}
}

func (lx *lexer) skipSpacesAndComments() {
	for {
		c := lx.peekByte()
		if c == ' ' || c == '\t' {
			lx.advance()
			continue
		}
		if c == '#' {
			for lx.peekByte() != '\n' && lx.peekByte() != 0 {
				lx.advance()
			}
			continue
		}
		return
	}
}

func (lx *lexer) lexNumber() (Tok, error) {
	pos := lx.pos()
	start := lx.off
	isFloat := false
	// Hex literals.
	if lx.peekByte() == '0' && (lx.peekByteAt(1) == 'x' || lx.peekByteAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for isHexDigit(lx.peekByte()) || lx.peekByte() == '_' {
			lx.advance()
		}
		return Tok{Kind: TokInt, Text: lx.src[start:lx.off], Pos: pos}, nil
	}
	for isDigit(lx.peekByte()) || lx.peekByte() == '_' {
		lx.advance()
	}
	if lx.peekByte() == '.' && lx.peekByteAt(1) != '.' {
		isFloat = true
		lx.advance()
		for isDigit(lx.peekByte()) || lx.peekByte() == '_' {
			lx.advance()
		}
	}
	if c := lx.peekByte(); c == 'e' || c == 'E' {
		d := 1
		if lx.peekByteAt(1) == '+' || lx.peekByteAt(1) == '-' {
			d = 2
		}
		if isDigit(lx.peekByteAt(d)) {
			isFloat = true
			for range d {
				lx.advance()
			}
			for isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
	}
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Tok{Kind: kind, Text: lx.src[start:lx.off], Pos: pos}, nil
}

func (lx *lexer) lexString(quote byte) (Tok, error) {
	pos := lx.pos()
	lx.advance() // opening quote
	// Triple-quoted strings.
	triple := lx.peekByte() == quote && lx.peekByteAt(1) == quote
	if triple {
		lx.advance()
		lx.advance()
	}
	var sb strings.Builder
	for {
		c := lx.peekByte()
		if c == 0 {
			return Tok{}, errf(pos, "unterminated string literal")
		}
		if !triple && c == '\n' {
			return Tok{}, errf(pos, "newline in string literal")
		}
		if c == quote {
			if !triple {
				lx.advance()
				break
			}
			if lx.peekByteAt(1) == quote && lx.peekByteAt(2) == quote {
				lx.advance()
				lx.advance()
				lx.advance()
				break
			}
			sb.WriteByte(lx.advance())
			continue
		}
		if c == '\\' {
			lx.advance()
			e := lx.peekByte()
			if e == 0 {
				return Tok{}, errf(pos, "unterminated string literal")
			}
			lx.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			case 'x':
				hi, lo := lx.peekByte(), lx.peekByteAt(1)
				if !isHexDigit(hi) || !isHexDigit(lo) {
					return Tok{}, errf(lx.pos(), `invalid \x escape`)
				}
				lx.advance()
				lx.advance()
				sb.WriteByte(hexVal(hi)<<4 | hexVal(lo))
			case '\n':
				// Line continuation inside a string: swallowed.
			default:
				// Python keeps unknown escapes verbatim (with the
				// backslash), e.g. regex patterns like '\S+' or '\d{3}'.
				sb.WriteByte('\\')
				sb.WriteByte(e)
			}
			continue
		}
		sb.WriteByte(lx.advance())
	}
	lx.emitted = true
	return Tok{Kind: TokString, Str: sb.String(), Pos: pos}, nil
}

func (lx *lexer) lexName() (Tok, error) {
	pos := lx.pos()
	start := lx.off
	for isNameCont(lx.peekByte()) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	// Raw string prefix: r'...' or r"..." (used for regex patterns).
	if (text == "r" || text == "R") && (lx.peekByte() == '\'' || lx.peekByte() == '"') {
		return lx.lexRawString(lx.peekByte())
	}
	lx.emitted = true
	if keywords[text] {
		return Tok{Kind: TokKeyword, Text: text, Pos: pos}, nil
	}
	return Tok{Kind: TokName, Text: text, Pos: pos}, nil
}

func (lx *lexer) lexRawString(quote byte) (Tok, error) {
	pos := lx.pos()
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		c := lx.peekByte()
		if c == 0 || c == '\n' {
			return Tok{}, errf(pos, "unterminated raw string literal")
		}
		if c == quote {
			lx.advance()
			break
		}
		if c == '\\' {
			// In a raw string the backslash is kept and the next char can
			// never terminate the string.
			sb.WriteByte(lx.advance())
			if n := lx.peekByte(); n != 0 && n != '\n' {
				sb.WriteByte(lx.advance())
			}
			continue
		}
		sb.WriteByte(lx.advance())
	}
	lx.emitted = true
	return Tok{Kind: TokString, Str: sb.String(), Pos: pos}, nil
}

// multi-character operators, longest first.
var multiOps = []string{
	"**=", "//=", "<<=", ">>=",
	"==", "!=", "<=", ">=", "**", "//", "->", "+=", "-=", "*=", "/=", "%=",
	"&=", "|=", "^=", "<<", ">>",
}

func (lx *lexer) lexOp() (Tok, error) {
	pos := lx.pos()
	rest := lx.src[lx.off:]
	for _, op := range multiOps {
		if strings.HasPrefix(rest, op) {
			for range len(op) {
				lx.advance()
			}
			lx.emitted = true
			return Tok{Kind: TokOp, Text: op, Pos: pos}, nil
		}
	}
	c := lx.advance()
	switch c {
	case '(', '[', '{':
		lx.depth++
	case ')', ']', '}':
		if lx.depth > 0 {
			lx.depth--
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '(', ')', '[', ']', '{', '}',
		',', ':', '.', ';', '@', '&', '|', '^', '~':
		lx.emitted = true
		return Tok{Kind: TokOp, Text: lx.src[lx.off-1 : lx.off], Pos: pos}, nil
	}
	return Tok{}, errf(pos, "unexpected character %q", string(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameCont(c byte) bool { return isNameStart(c) || isDigit(c) }
