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
	src       string
	off       int
	line      int
	lineStart int // offset of the current line's first byte
	indents   []int
	toks      []Tok
	depth     int  // bracket nesting depth ([({ vs )}])
	atBOL     bool // at beginning of a logical line
	emitted   bool // some non-NEWLINE token emitted on current line
}

// Lex tokenizes the whole source.
func Lex(src string) ([]Tok, error) {
	toks, err := lex(src, nil)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lex tokenizes src into buf's storage, or a fresh slice when buf is
// short, and returns the tokens, with the error if lexing failed.
func lex(src string, buf []Tok) ([]Tok, error) {
	// Normalize line endings so the indentation logic sees \n only.
	src = strings.ReplaceAll(src, "\r\n", "\n")
	src = strings.ReplaceAll(src, "\r", "\n")
	// UDF source runs about two bytes per token; reserving that up front
	// spares the slice its regrowth copies.
	if n := len(src)/2 + 8; cap(buf) < n {
		buf = make([]Tok, 0, n)
	}
	lx := &lexer{src: src, line: 1, indents: []int{0}, atBOL: true, toks: buf[:0]}
	err := lx.run()
	return lx.toks, err
}

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.off - lx.lineStart + 1} }

// emit appends a token that starts at offset start of the current line.
func (lx *lexer) emit(kind TokKind, op opcode, text string, start int) {
	lx.toks = append(lx.toks, Tok{Text: text, Line: int32(lx.line), Col: int32(start - lx.lineStart + 1), Kind: kind, op: op})
}

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
		lx.lineStart = lx.off
	}
	return c
}

// run lexes up to and including EOF. A NUL byte ends the input.
func (lx *lexer) run() error {
	for {
		if lx.atBOL && lx.depth == 0 {
			if err := lx.handleIndentation(); err != nil {
				return err
			}
		}

		lx.skipSpacesAndComments()

		start := lx.off
		c := lx.peekByte()
		var err error
		switch {
		case c == 0:
			// Close the final logical line and drain indents.
			if lx.emitted {
				lx.emit(TokNewline, opNone, "", start)
			}
			for len(lx.indents) > 1 {
				lx.indents = lx.indents[:len(lx.indents)-1]
				lx.emit(TokDedent, opNone, "", start)
			}
			lx.emit(TokEOF, opNone, "", start)
			return nil

		case c == '\n':
			// Implicit joining inside brackets; blank lines produce no
			// NEWLINE either.
			if lx.depth == 0 && lx.emitted {
				lx.emit(TokNewline, opNone, "", start)
				lx.emitted = false
			}
			lx.advance()
			lx.atBOL = lx.depth == 0

		case c == '\\' && lx.peekByteAt(1) == '\n':
			lx.advance()
			lx.advance()

		case isDigit(c) || (c == '.' && isDigit(lx.peekByteAt(1))):
			lx.lexNumber()

		case c == '\'' || c == '"':
			err = lx.lexString(c)

		case isNameStart(c):
			err = lx.lexName()

		default:
			err = lx.lexOp()
		}
		if err != nil {
			return err
		}
	}
}

// handleIndentation measures leading whitespace of a fresh logical line
// and emits INDENT/DEDENT tokens as needed. A blank or comment-only line
// emits none.
func (lx *lexer) handleIndentation() error {
	lx.atBOL = false
	width := 0
	for {
		c := lx.peekByte()
		if c == ' ' {
			width++
			lx.off++
		} else if c == '\t' {
			width += 8 - width%8
			lx.off++
		} else {
			break
		}
	}
	if c := lx.peekByte(); c == '\n' || c == '#' || c == 0 {
		return nil
	}
	cur := lx.indents[len(lx.indents)-1]
	switch {
	case width > cur:
		lx.indents = append(lx.indents, width)
		lx.emit(TokIndent, opNone, "", lx.off)
	case width < cur:
		for len(lx.indents) > 1 && lx.indents[len(lx.indents)-1] > width {
			lx.indents = lx.indents[:len(lx.indents)-1]
			lx.emit(TokDedent, opNone, "", lx.off)
		}
		if lx.indents[len(lx.indents)-1] != width {
			return errf(lx.pos(), "unindent does not match any outer indentation level")
		}
	}
	return nil
}

func (lx *lexer) skipSpacesAndComments() {
	for lx.off < len(lx.src) {
		switch lx.src[lx.off] {
		case ' ', '\t':
			lx.off++
		case '#':
			// A NUL byte ends the input, inside a comment too.
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' && lx.src[lx.off] != 0 {
				lx.off++
			}
		default:
			return
		}
	}
}

func (lx *lexer) lexNumber() {
	start := lx.off
	isFloat := false
	// Hex literals.
	if lx.peekByte() == '0' && (lx.peekByteAt(1) == 'x' || lx.peekByteAt(1) == 'X') {
		lx.off += 2
		for isHexDigit(lx.peekByte()) || lx.peekByte() == '_' {
			lx.off++
		}
		lx.emit(TokInt, opNone, lx.src[start:lx.off], start)
		return
	}
	for isDigit(lx.peekByte()) || lx.peekByte() == '_' {
		lx.off++
	}
	if lx.peekByte() == '.' && lx.peekByteAt(1) != '.' {
		isFloat = true
		lx.off++
		for isDigit(lx.peekByte()) || lx.peekByte() == '_' {
			lx.off++
		}
	}
	if c := lx.peekByte(); c == 'e' || c == 'E' {
		d := 1
		if lx.peekByteAt(1) == '+' || lx.peekByteAt(1) == '-' {
			d = 2
		}
		if isDigit(lx.peekByteAt(d)) {
			isFloat = true
			lx.off += d
			for isDigit(lx.peekByte()) {
				lx.off++
			}
		}
	}
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	lx.emit(kind, opNone, lx.src[start:lx.off], start)
}

func (lx *lexer) lexString(quote byte) error {
	at := Tok{Line: int32(lx.line), Col: int32(lx.off - lx.lineStart + 1), Kind: TokString}
	pos := at.Pos()
	lx.off++ // opening quote
	// Triple-quoted strings.
	triple := lx.peekByte() == quote && lx.peekByteAt(1) == quote
	if triple {
		lx.off += 2
	}
	body := lx.off
	// Fast path: a literal without escapes is a substring of the source.
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		if c == '\\' || c == 0 {
			break
		}
		if c == quote && (!triple || (lx.peekByteAt(1) == quote && lx.peekByteAt(2) == quote)) {
			at.Text = lx.src[body:lx.off]
			if triple {
				lx.off += 3
			} else {
				lx.off++
			}
			lx.emitted = true
			lx.toks = append(lx.toks, at)
			return nil
		}
		if c == '\n' {
			if !triple {
				return errf(pos, "newline in string literal")
			}
			lx.line++
			lx.lineStart = lx.off + 1
		}
		lx.off++
	}
	// An escape (or the end of the input): decode from here on, behind
	// the escape-free prefix.
	var sb strings.Builder
	sb.WriteString(lx.src[body:lx.off])
	for {
		c := lx.peekByte()
		if c == 0 {
			return errf(pos, "unterminated string literal")
		}
		if !triple && c == '\n' {
			return errf(pos, "newline in string literal")
		}
		if c == quote {
			if !triple {
				lx.advance()
				break
			}
			if lx.peekByteAt(1) == quote && lx.peekByteAt(2) == quote {
				lx.off += 3
				break
			}
			sb.WriteByte(lx.advance())
			continue
		}
		if c == '\\' {
			lx.advance()
			e := lx.peekByte()
			if e == 0 {
				return errf(pos, "unterminated string literal")
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
					return errf(lx.pos(), `invalid \x escape`)
				}
				lx.off += 2
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
	at.Text = sb.String()
	lx.toks = append(lx.toks, at)
	return nil
}

func (lx *lexer) lexName() error {
	start := lx.off
	for lx.off < len(lx.src) && isNameCont(lx.src[lx.off]) {
		lx.off++
	}
	text := lx.src[start:lx.off]
	// Raw string prefix: r'...' or r"..." (used for regex patterns).
	if (text == "r" || text == "R") && (lx.peekByte() == '\'' || lx.peekByte() == '"') {
		return lx.lexRawString(lx.peekByte())
	}
	lx.emitted = true
	if kw := keyword(text); kw != opNone {
		lx.emit(TokKeyword, kw, text, start)
		return nil
	}
	lx.emit(TokName, opNone, text, start)
	return nil
}

func (lx *lexer) lexRawString(quote byte) error {
	start, pos := lx.off, lx.pos()
	lx.off++ // opening quote
	body := lx.off
	for {
		c := lx.peekByte()
		if c == 0 || c == '\n' {
			return errf(pos, "unterminated raw string literal")
		}
		if c == quote {
			break
		}
		lx.off++
		if c == '\\' {
			// In a raw string the backslash is kept and the next char can
			// never terminate the string.
			if n := lx.peekByte(); n != 0 && n != '\n' {
				lx.off++
			}
		}
	}
	text := lx.src[body:lx.off]
	lx.off++
	lx.emitted = true
	lx.emit(TokString, opNone, text, start)
	return nil
}

// opBytes is the operator table, indexed by an operator's first byte:
// the one-byte operator, its '=' form, and for ** // << >> the doubled
// operator and its '=' form.
var opBytes = [256]struct{ one, eq, dbl, dblEq opcode }{
	'+': {one: opAdd, eq: opAddEq},
	'-': {one: opSub, eq: opSubEq},
	'*': {opMul, opMulEq, opPow, opPowEq},
	'/': {opDiv, opDivEq, opFloorDiv, opFloorDivEq},
	'%': {one: opMod, eq: opModEq},
	'&': {one: opBitAnd, eq: opAndEq},
	'|': {one: opBitOr, eq: opOrEq},
	'^': {one: opBitXor, eq: opXorEq},
	'<': {opLt, opLe, opLShift, opLShiftEq},
	'>': {opGt, opGe, opRShift, opRShiftEq},
	'=': {one: opAssign, eq: opEq},
	'!': {eq: opNe},
	'~': {one: opInvert},
	'(': {one: opLParen}, ')': {one: opRParen},
	'[': {one: opLBracket}, ']': {one: opRBracket},
	'{': {one: opLBrace}, '}': {one: opRBrace},
	',': {one: opComma}, ':': {one: opColon}, '.': {one: opDot},
	';': {one: opSemi}, '@': {one: opAt},
}

// lexOp reads an operator or a punctuation mark: the first byte picks
// the table row, the next two pick among its forms.
func (lx *lexer) lexOp() error {
	start := lx.off
	c, c1 := lx.src[start], lx.peekByteAt(1)
	row := &opBytes[c]
	op, n := row.one, 1
	switch {
	case row.dbl != opNone && c1 == c:
		op, n = row.dbl, 2
		if lx.peekByteAt(2) == '=' {
			op, n = row.dblEq, 3
		}
	case row.eq != opNone && c1 == '=':
		op, n = row.eq, 2
	case c == '-' && c1 == '>':
		op, n = opArrow, 2
	}
	switch op {
	case opNone:
		return errf(lx.pos(), "unexpected character %q", string(c))
	case opLParen, opLBracket, opLBrace:
		lx.depth++
	case opRParen, opRBracket, opRBrace:
		if lx.depth > 0 {
			lx.depth--
		}
	}
	lx.off += n
	lx.emitted = true
	lx.emit(TokOp, op, lx.src[start:lx.off], start)
	return nil
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
