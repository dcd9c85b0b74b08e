package pyvalue

import "strconv"

// IntFormat is a literal format string — old-style ('%05d' % n) or
// str.format ('{:02}:{:02}') — compiled for integer arguments only. The
// compiled paths use it where the format is a literal and every argument
// is statically an int: formatting then costs no boxing and no parse of
// the format per row. It renders exactly what AppendPercentFormat /
// StrFormat render for the same inputs (pinned by FuzzIntFormat); a
// format it does not cover does not compile, and the caller keeps the
// generic formatter.
type IntFormat struct {
	segs []intFmtSeg
	tail string
	// nargs is the argument count the format consumes; exact means it
	// accepts no other count (old-style formatting raises on a surplus,
	// str.format ignores it).
	nargs int
	exact bool
}

// intFmtSeg is literal text followed by one integer directive.
type intFmtSeg struct {
	lit                      string
	arg, width               int
	minus, plus, space, zero bool
}

// Accepts reports whether the format renders n integer arguments without
// raising.
func (f *IntFormat) Accepts(n int) bool {
	if f.exact {
		return n == f.nargs
	}
	return n >= f.nargs
}

// Append renders the format over args (which it Accepts) onto dst.
func (f *IntFormat) Append(dst []byte, args []int64) []byte {
	for i := range f.segs {
		s := &f.segs[i]
		dst = append(dst, s.lit...)
		dst = appendIntDirective(dst, args[s.arg], s.width, s.minus, s.plus, s.space, s.zero)
	}
	return append(dst, f.tail...)
}

// appendIntDirective renders one %d-style directive: sign flags, width,
// left-justify and zero-fill; shared with AppendPercentFormat.
func appendIntDirective(dst []byte, n int64, width int, minus, plus, space, zero bool) []byte {
	var tmp [24]byte
	body := strconv.AppendInt(tmp[:0], n, 10)
	return appendPadded(dst, numSign(body, plus, space), body, width, minus, zero)
}

// CompilePercentInt compiles an old-style format whose directives are all
// %d / %i with flags and a width (no '#', no precision); %% is a literal.
func CompilePercentInt(format string) (*IntFormat, bool) {
	f := &IntFormat{exact: true}
	var lit []byte
	for i := 0; i < len(format); {
		c := format[i]
		i++
		if c != '%' {
			lit = append(lit, c)
			continue
		}
		if i >= len(format) {
			return nil, false
		}
		if format[i] == '%' {
			lit = append(lit, '%')
			i++
			continue
		}
		s := intFmtSeg{arg: f.nargs}
	flags:
		for i < len(format) {
			switch format[i] {
			case '-':
				s.minus = true
			case '+':
				s.plus = true
			case ' ':
				s.space = true
			case '0':
				s.zero = true
			default:
				break flags
			}
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			if s.width = s.width*10 + int(format[i]-'0'); s.width > 1<<16 {
				return nil, false
			}
			i++
		}
		if i >= len(format) || (format[i] != 'd' && format[i] != 'i') {
			return nil, false
		}
		i++
		s.lit, lit = string(lit), lit[:0]
		f.segs = append(f.segs, s)
		f.nargs++
	}
	f.tail = string(lit)
	return f, true
}

// CompileStrFormatInt compiles a str.format string whose fields are all
// {}, {N}, {:spec} or {N:spec} with spec = [0][width][d]; {{ and }} are
// literals. Fill/align, sign, ',' and precision specs do not compile.
func CompileStrFormatInt(format string) (*IntFormat, bool) {
	f := &IntFormat{}
	var lit []byte
	auto, manual := 0, false
	for i := 0; i < len(format); {
		c := format[i]
		i++
		if c == '}' {
			if i >= len(format) || format[i] != '}' {
				return nil, false
			}
			lit = append(lit, '}')
			i++
			continue
		}
		if c != '{' {
			lit = append(lit, c)
			continue
		}
		if i < len(format) && format[i] == '{' {
			lit = append(lit, '{')
			i++
			continue
		}
		var s intFmtSeg
		digits := func() (n int, any bool) {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' && n <= 1<<16 {
				n, any = n*10+int(format[i]-'0'), true
				i++
			}
			return n, any
		}
		idx, explicit := digits()
		switch {
		case explicit && auto > 0, !explicit && manual, idx > 1<<16:
			return nil, false
		case explicit:
			manual = true
			s.arg = idx
		default:
			s.arg = auto
			auto++
		}
		if i < len(format) && format[i] == ':' {
			i++
			if i < len(format) && format[i] == '0' {
				s.zero = true
				i++
			}
			if s.width, _ = digits(); s.width > 1<<16 {
				return nil, false
			}
			if i < len(format) && format[i] == 'd' {
				i++
			}
		}
		if i >= len(format) || format[i] != '}' {
			return nil, false
		}
		i++
		s.lit, lit = string(lit), lit[:0]
		f.segs = append(f.segs, s)
		if s.arg >= f.nargs {
			f.nargs = s.arg + 1
		}
	}
	f.tail = string(lit)
	return f, true
}
