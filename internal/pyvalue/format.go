package pyvalue

import (
	"fmt"
	"strconv"
	"strings"
)

// PercentFormat implements Python's old-style `fmt % arg` string
// formatting for the conversions data-wrangling code uses
// (%d %i %f %e %g %s %r %x %X %o %% with flags, width and precision).
func PercentFormat(format string, arg Value) (Value, error) {
	out, err := AppendPercentFormat(nil, format, arg)
	if err != nil {
		return nil, err
	}
	return Str(out), nil
}

// AppendPercentFormat is PercentFormat appending into dst, so hot UDF
// loops can reuse a scratch buffer and pay only for the result string.
// Common directives format via strconv with manual flag handling; the
// rarely-used combinations (`#`, integer precision, zero-padded
// strings, %F) keep the fmt-based rendering for byte-identical output.
func AppendPercentFormat(dst []byte, format string, arg Value) ([]byte, error) {
	var args []Value
	if t, ok := arg.(*Tuple); ok {
		args = t.Items
	} else {
		args = []Value{arg}
	}
	ai := 0
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			dst = append(dst, c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			return nil, Raise(ExcValueError, "incomplete format")
		}
		if format[i] == '%' {
			dst = append(dst, '%')
			i++
			continue
		}
		// Parse %[flags][width][.precision]conversion.
		var minus, plus, space, zero, alt bool
	flags:
		for i < len(format) {
			switch format[i] {
			case '-':
				minus = true
			case '+':
				plus = true
			case ' ':
				space = true
			case '0':
				zero = true
			case '#':
				alt = true
			default:
				break flags
			}
			i++
		}
		width := 0
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			width = width*10 + int(format[i]-'0')
			i++
		}
		prec := -1
		if i < len(format) && format[i] == '.' {
			i++
			prec = 0
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				prec = prec*10 + int(format[i]-'0')
				i++
			}
		}
		if i >= len(format) {
			return nil, Raise(ExcValueError, "incomplete format")
		}
		conv := format[i]
		i++
		if ai >= len(args) {
			return nil, Raise(ExcTypeError, "not enough arguments for format string")
		}
		v := args[ai]
		ai++

		slow := func(val any) {
			spec := make([]byte, 0, 12)
			spec = append(spec, '%')
			if minus {
				spec = append(spec, '-')
			}
			if plus {
				spec = append(spec, '+')
			}
			if space {
				spec = append(spec, ' ')
			}
			if zero {
				spec = append(spec, '0')
			}
			if alt {
				spec = append(spec, '#')
			}
			if width > 0 {
				spec = strconv.AppendInt(spec, int64(width), 10)
			}
			if prec >= 0 {
				spec = append(spec, '.')
				spec = strconv.AppendInt(spec, int64(prec), 10)
			}
			verb := conv
			if conv == 'i' {
				verb = 'd'
			}
			if conv == 's' || conv == 'r' {
				verb = 's'
			}
			spec = append(spec, verb)
			dst = fmt.Appendf(dst, string(spec), val)
		}

		var tmp [40]byte
		switch conv {
		case 'd', 'i':
			n, ok := percentInt(v)
			if !ok {
				return nil, Raise(ExcTypeError, "%%d format: a number is required, not %s", TypeName(v))
			}
			if prec >= 0 {
				slow(n)
				break
			}
			dst = appendIntDirective(dst, n, width, minus, plus, space, zero)
		case 'f', 'F', 'e', 'E', 'g', 'G':
			f, ok := asFloat(v)
			if !ok {
				return nil, Raise(ExcTypeError, "must be real number, not %s", TypeName(v))
			}
			if conv == 'F' {
				slow(f)
				break
			}
			p := prec
			if p < 0 && conv != 'g' && conv != 'G' {
				p = 6
			}
			body := strconv.AppendFloat(tmp[:0], f, conv, p, 64)
			dst = appendPadded(dst, numSign(body, plus, space), body, width, minus, zero)
		case 'x', 'X', 'o':
			n, ok := percentInt(v)
			if !ok {
				return nil, Raise(ExcTypeError, "%%%c format: an integer is required, not %s", conv, TypeName(v))
			}
			if alt || prec >= 0 {
				slow(n)
				break
			}
			base := 8
			if conv == 'x' || conv == 'X' {
				base = 16
			}
			body := strconv.AppendInt(tmp[:0], n, base)
			if conv == 'X' {
				for j := range body {
					if body[j] >= 'a' && body[j] <= 'f' {
						body[j] -= 'a' - 'A'
					}
				}
			}
			dst = appendPadded(dst, numSign(body, plus, space), body, width, minus, zero)
		case 's', 'r':
			var body string
			if conv == 's' {
				body = ToStr(v)
			} else {
				body = Repr(v)
			}
			if prec >= 0 && prec < len(body) {
				body = body[:prec]
			}
			if zero {
				// fmt zero-pads strings; keep that rendering.
				slow(body)
				break
			}
			dst = appendPaddedStr(dst, body, width, minus)
		default:
			return nil, Raise(ExcValueError, "unsupported format character %q", string(conv))
		}
	}
	if ai < len(args) {
		return nil, Raise(ExcTypeError, "not all arguments converted during string formatting")
	}
	return dst, nil
}

// numSign picks the explicit sign byte the '+'/' ' flags add to a
// non-negative strconv-rendered number (0 = none; the body already
// carries any '-').
func numSign(body []byte, plus, space bool) byte {
	if len(body) > 0 && body[0] == '-' {
		return 0
	}
	if plus {
		return '+'
	}
	if space {
		return ' '
	}
	return 0
}

// appendPadded writes a numeric body honoring the sign byte, width,
// '-' and '0'.
func appendPadded(dst []byte, sign byte, body []byte, width int, minus, zero bool) []byte {
	n := len(body)
	if sign != 0 {
		n++
	}
	pad := width - n
	if pad <= 0 {
		if sign != 0 {
			dst = append(dst, sign)
		}
		return append(dst, body...)
	}
	if minus {
		if sign != 0 {
			dst = append(dst, sign)
		}
		dst = append(dst, body...)
		return appendByteN(dst, ' ', pad)
	}
	if zero {
		j := 0
		switch {
		case sign != 0:
			dst = append(dst, sign)
		case len(body) > 0 && body[0] == '-':
			dst = append(dst, '-')
			j = 1
		}
		dst = appendByteN(dst, '0', pad)
		return append(dst, body[j:]...)
	}
	dst = appendByteN(dst, ' ', pad)
	if sign != 0 {
		dst = append(dst, sign)
	}
	return append(dst, body...)
}

// appendPaddedStr is appendPadded for string bodies (no zero flag).
func appendPaddedStr(dst []byte, body string, width int, minus bool) []byte {
	pad := width - len(body)
	if pad <= 0 {
		return append(dst, body...)
	}
	if minus {
		dst = append(dst, body...)
		return appendByteN(dst, ' ', pad)
	}
	dst = appendByteN(dst, ' ', pad)
	return append(dst, body...)
}

func appendByteN(dst []byte, c byte, n int) []byte {
	for range n {
		dst = append(dst, c)
	}
	return dst
}

func percentInt(v Value) (int64, bool) {
	if n, ok := asInt(v); ok {
		return n, true
	}
	if f, ok := v.(Float); ok {
		return int64(f), true
	}
	return 0, false
}

// StrFormat implements str.format() for auto-numbered and positional
// fields with the format-spec subset [[fill]align][sign][0][width]
// [,][.precision][type] (types d f F e E g G s x X %).
func StrFormat(format string, args []Value) (Value, error) {
	var sb strings.Builder
	auto := 0
	usedAuto, usedManual := false, false
	i := 0
	for i < len(format) {
		c := format[i]
		switch c {
		case '{':
			if i+1 < len(format) && format[i+1] == '{' {
				sb.WriteByte('{')
				i += 2
				continue
			}
			end := strings.IndexByte(format[i:], '}')
			if end < 0 {
				return nil, Raise(ExcValueError, "single '{' encountered in format string")
			}
			field := format[i+1 : i+end]
			i += end + 1
			name, spec := field, ""
			if j := strings.IndexByte(field, ':'); j >= 0 {
				name, spec = field[:j], field[j+1:]
			}
			var v Value
			if name == "" {
				usedAuto = true
				if usedManual {
					return nil, Raise(ExcValueError, "cannot switch from manual field specification to automatic field numbering")
				}
				if auto >= len(args) {
					return nil, Raise(ExcIndexError, "Replacement index %d out of range for positional args tuple", auto)
				}
				v = args[auto]
				auto++
			} else {
				idx, err := strconv.Atoi(name)
				if err != nil {
					return nil, Raise(ExcValueError, "unsupported format field name %q", name)
				}
				usedManual = true
				if usedAuto {
					return nil, Raise(ExcValueError, "cannot switch from automatic field numbering to manual field specification")
				}
				if idx < 0 || idx >= len(args) {
					return nil, Raise(ExcIndexError, "Replacement index %d out of range for positional args tuple", idx)
				}
				v = args[idx]
			}
			out, err := FormatSpec(v, spec)
			if err != nil {
				return nil, err
			}
			sb.WriteString(out)
		case '}':
			if i+1 < len(format) && format[i+1] == '}' {
				sb.WriteByte('}')
				i += 2
				continue
			}
			return nil, Raise(ExcValueError, "Single '}' encountered in format string")
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return Str(sb.String()), nil
}

// FormatSpec applies a Python format-spec to a value.
func FormatSpec(v Value, spec string) (string, error) {
	if spec == "" {
		return ToStr(v), nil
	}
	fill, align := byte(' '), byte(0)
	sign := byte(0)
	zero := false
	width, prec := -1, -1
	comma := false
	verb := byte(0)

	s := spec
	// [[fill]align]
	if len(s) >= 2 && (s[1] == '<' || s[1] == '>' || s[1] == '^') {
		fill, align = s[0], s[1]
		s = s[2:]
	} else if len(s) >= 1 && (s[0] == '<' || s[0] == '>' || s[0] == '^') {
		align = s[0]
		s = s[1:]
	}
	if len(s) >= 1 && (s[0] == '+' || s[0] == '-' || s[0] == ' ') {
		sign = s[0]
		s = s[1:]
	}
	if len(s) >= 1 && s[0] == '0' {
		zero = true
		s = s[1:]
	}
	j := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	if j > 0 {
		width, _ = strconv.Atoi(s[:j])
		s = s[j:]
	}
	if len(s) >= 1 && s[0] == ',' {
		comma = true
		s = s[1:]
	}
	if len(s) >= 1 && s[0] == '.' {
		s = s[1:]
		j = 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == 0 {
			return "", Raise(ExcValueError, "Format specifier missing precision")
		}
		prec, _ = strconv.Atoi(s[:j])
		s = s[j:]
	}
	if len(s) == 1 {
		verb = s[0]
		s = ""
	}
	if s != "" {
		return "", Raise(ExcValueError, "Invalid format specifier %q", spec)
	}

	var body string
	switch verb {
	case 0:
		// No explicit type: int-like values format as d, floats as g-ish
		// via repr, strings as-is.
		switch v.(type) {
		case Bool, Int:
			n, _ := asInt(v)
			body = strconv.FormatInt(n, 10)
		case Float:
			body = FloatRepr(float64(v.(Float)))
		case Str:
			body = string(v.(Str))
		default:
			body = ToStr(v)
		}
	case 'd':
		n, ok := asInt(v)
		if !ok {
			return "", Raise(ExcValueError, "Unknown format code 'd' for object of type %q", TypeName(v))
		}
		body = strconv.FormatInt(n, 10)
	case 'f', 'F', 'e', 'E', 'g', 'G':
		f, ok := asFloat(v)
		if !ok {
			return "", Raise(ExcValueError, "Unknown format code %q for object of type %q", string(verb), TypeName(v))
		}
		p := prec
		if p < 0 {
			if verb == 'g' || verb == 'G' {
				p = -1
			} else {
				p = 6
			}
		}
		body = strconv.FormatFloat(f, verb, p, 64)
	case 'x', 'X':
		n, ok := asInt(v)
		if !ok {
			return "", Raise(ExcValueError, "Unknown format code %q for object of type %q", string(verb), TypeName(v))
		}
		body = strconv.FormatInt(n, 16)
		if verb == 'X' {
			body = strings.ToUpper(body)
		}
	case 's':
		body = ToStr(v)
		if prec >= 0 && prec < len(body) {
			body = body[:prec]
		}
	case '%':
		f, ok := asFloat(v)
		if !ok {
			return "", Raise(ExcValueError, "Unknown format code '%%' for object of type %q", TypeName(v))
		}
		p := prec
		if p < 0 {
			p = 6
		}
		body = strconv.FormatFloat(f*100, 'f', p, 64) + "%"
	default:
		return "", Raise(ExcValueError, "Unknown format code %q", string(verb))
	}

	// Apply sign for numeric verbs.
	numeric := verb == 0 && IsNumeric(v) || strings.IndexByte("dfFeEgGxX%", verb) >= 0 && verb != 0
	if numeric && sign == '+' && !strings.HasPrefix(body, "-") {
		body = "+" + body
	}
	if numeric && sign == ' ' && !strings.HasPrefix(body, "-") {
		body = " " + body
	}
	if comma {
		body = addThousands(body)
	}
	// Width padding.
	if width > 0 && len(body) < width {
		pad := width - len(body)
		switch {
		case align == '<':
			body += strings.Repeat(string(fill), pad)
		case align == '^':
			l := pad / 2
			body = strings.Repeat(string(fill), l) + body + strings.Repeat(string(fill), pad-l)
		case align == '>':
			body = strings.Repeat(string(fill), pad) + body
		case zero && numeric:
			// Zero-pad after the sign.
			if len(body) > 0 && (body[0] == '-' || body[0] == '+') {
				body = body[:1] + strings.Repeat("0", pad) + body[1:]
			} else {
				body = strings.Repeat("0", pad) + body
			}
		case numeric:
			body = strings.Repeat(" ", pad) + body
		default:
			body += strings.Repeat(" ", pad)
		}
	}
	return body, nil
}

func addThousands(body string) string {
	// Find the integer part boundaries.
	start := 0
	if len(body) > 0 && (body[0] == '-' || body[0] == '+') {
		start = 1
	}
	end := len(body)
	if i := strings.IndexByte(body, '.'); i >= 0 {
		end = i
	}
	intPart := body[start:end]
	var sb strings.Builder
	for i, c := range intPart {
		if i > 0 && (len(intPart)-i)%3 == 0 {
			sb.WriteByte(',')
		}
		sb.WriteRune(c)
	}
	return body[:start] + sb.String() + body[end:]
}
