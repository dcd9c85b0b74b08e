package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/rows"
)

// ResultRows returns an engine result's output rows in their plain
// JSON-encodable form ([]any cells: nil, bool, int64, float64, string,
// []any, map[string]any), at most limit of them (-1 = all). The engine
// boxes only Options.CollectLimit rows, so a caller that caps should
// set that to the same limit: the rows past it are then neither boxed
// nor retained. Compare len(result) against ResultLen to detect
// truncation.
func ResultRows(res *core.Result, limit int) [][]any {
	out := res.Rows
	if limit >= 0 && limit < len(out) {
		if limit == 0 {
			return nil
		}
		out = out[:limit:limit]
	}
	return out
}

// ResultLen reports a collect result's total output row count before any
// row limit.
func ResultLen(res *core.Result) int {
	return int(res.Metrics.Counters.OutputRows.Load())
}

// ---- rows wire format ----
//
// A job's rows travel as the compact JSON json.Marshal writes for
// [][]any. The server encodes them once, with the typed appender below;
// the client decodes them with DecodeRows, which reads the structure and
// plain tokens itself and hands every other token to encoding/json.

// AppendResult appends the JSON encoding of result's rows — the bytes
// json.Marshal(result) writes — to dst. A cell with no JSON encoding (a
// NaN or infinite float) is an error naming its 0-based row index, its
// column (from columns, else its index) and the value.
func AppendResult(dst []byte, columns []string, result [][]any) ([]byte, error) {
	if result == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, row := range result {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for c, v := range row {
			if c > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendValue(dst, v); err != nil {
				col := strconv.Itoa(c)
				if c < len(columns) {
					col = strconv.Quote(columns[c])
				}
				return dst, fmt.Errorf("result row %d, column %s: %w", i, col, err)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// AppendValue appends the JSON encoding of v — the bytes json.Marshal(v)
// writes — to dst. The cell kinds ResultRows produces (nil, bool, int64,
// float64, string, []any) are encoded directly; anything else goes
// through json.Marshal. A NaN or infinite float is an error.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, v), nil
	case int64:
		return strconv.AppendInt(dst, v, 10), nil
	case float64:
		return appendFloat(dst, v)
	case string:
		return appendString(dst, v), nil
	case []any:
		if v == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendValue(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendFloat formats f as encoding/json does: ES6 number-to-string,
// shortest digits, 'e' form below 1e-6 and from 1e21 with the exponent's
// leading zero dropped.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped: printable
// characters other than '"', '\\' and the HTML-significant '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune("\"\\<>&", rune(b))
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does (HTML escaping on): short
// escapes for \b \f \n \r \t, \u00XX for the other control bytes and
// '<', '>', '&', \ufffd for each invalid UTF-8 byte, and \u2028 / \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeRows decodes a rows array (or null) exactly as json.Unmarshal
// into a [][]any does — numbers as float64 — and fails exactly when it
// fails. Structure, literals, numbers and plain strings (no escape, no
// control byte, valid UTF-8) are read directly, and every plain string
// is a substring of one string copy of data; escaped strings, nested
// values and numbers ParseFloat rejects go through encoding/json, and a
// document the direct reader does not accept is decoded by
// encoding/json whole.
func DecodeRows(data []byte) ([][]any, error) {
	d := rowsDecoder{data: data, s: string(data)}
	if out, ok := d.decode(); ok {
		return out, nil
	}
	var out [][]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// rowsDecoder is DecodeRows' direct reader. Every method reports false
// on anything it does not read itself; DecodeRows then falls back.
type rowsDecoder struct {
	data  []byte
	s     string // string(data): plain string cells are its substrings
	i     int
	cells []any // the row being read

	// Cells, floats and strings are boxed into slabs (rows.Boxer), a
	// fresh set per slabRows rows, each reserved from what the previous
	// set held: slabs then neither copy as they grow nor outlast the
	// rows much.
	box                 rows.Boxer
	slabStart           int // d.i where the current set began
	nCells, nF64, nStrs int // boxed into the current set
}

const slabRows = 1024

func (d *rowsDecoder) decode() ([][]any, bool) {
	if d.space(); d.literal("null") {
		return nil, d.end()
	}
	var out [][]any
	ok := d.list(func() bool {
		if len(out)%slabRows == 0 {
			d.newSlabs()
			if len(out) == slabRows { // size the list from the first set's bytes
				out = slices.Grow(out, int(float64(slabRows)*float64(len(d.s)-d.i)/float64(d.i))+1)
			}
		}
		row, ok := d.row()
		out = append(out, row)
		return ok
	})
	if out == nil {
		out = [][]any{}
	}
	return out, ok && d.end()
}

// newSlabs starts a set of slabs sized like the last one, scaled down
// to the bytes left when fewer remain than it covered.
func (d *rowsDecoder) newSlabs() {
	scale := 1.0
	if read, left := d.i-d.slabStart, len(d.s)-d.i; read > left {
		scale = 1.0625 * float64(left) / float64(read)
	}
	size := func(n int) int { return int(scale*float64(n)) + 1 }
	d.box = rows.Boxer{}
	d.box.Reserve(size(d.nCells), 0, size(d.nF64), size(d.nStrs))
	d.slabStart, d.nCells, d.nF64, d.nStrs = d.i, 0, 0, 0
}

// list reads a '['-delimited, comma-separated list, calling elem at the
// start of each element.
func (d *rowsDecoder) list(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		d.space()
		if !elem() {
			return false
		}
		if d.consume(',') {
			continue
		}
		return d.consume(']')
	}
}

func (d *rowsDecoder) row() ([]any, bool) {
	if d.literal("null") {
		return nil, true
	}
	d.cells = d.cells[:0]
	if !d.list(func() bool {
		v, ok := d.value()
		d.cells = append(d.cells, v)
		return ok
	}) {
		return nil, false
	}
	if len(d.cells) == 0 {
		return []any{}, true
	}
	row := d.box.Cells(len(d.cells))
	copy(row, d.cells)
	d.nCells += len(row)
	return row, true
}

func (d *rowsDecoder) value() (any, bool) {
	if d.i == len(d.s) {
		return nil, false
	}
	switch c := d.s[d.i]; {
	case c == '"':
		return d.str()
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == '[' || c == '{':
		end, ok := skipValue(d.data, d.i)
		if !ok {
			return nil, false
		}
		return d.viaJSON(end)
	case d.literal("null"):
		return nil, true
	case d.literal("true"):
		return true, true
	case d.literal("false"):
		return false, true
	}
	return nil, false
}

// str reads a string token, directly when it is plain.
func (d *rowsDecoder) str() (any, bool) {
	ascii := true
	for j := d.i + 1; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c == '"':
			s := d.s[d.i+1 : j]
			if !ascii && !utf8.ValidString(s) {
				return d.viaJSON(j + 1)
			}
			d.i = j + 1
			d.nStrs++
			return d.box.Str(s), true
		case c == '\\' || c < 0x20:
			end, ok := skipValue(d.data, d.i)
			if !ok {
				return nil, false
			}
			return d.viaJSON(end)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *rowsDecoder) number() (any, bool) {
	j := d.i
	for j < len(d.s) && strings.IndexByte("0123456789+-.eE", d.s[j]) >= 0 {
		j++
	}
	tok := d.s[d.i:j]
	if !isJSONNumber(tok) {
		return nil, false
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return d.viaJSON(j)
	}
	d.i = j
	d.nF64++
	return d.box.F64(f), true
}

// viaJSON decodes the token data[d.i:end] with encoding/json.
func (d *rowsDecoder) viaJSON(end int) (any, bool) {
	var v any
	if err := json.Unmarshal(d.data[d.i:end], &v); err != nil {
		return nil, false
	}
	d.i = end
	return v, true
}

// literal consumes word if it comes next.
func (d *rowsDecoder) literal(word string) bool {
	if strings.HasPrefix(d.s[d.i:], word) {
		d.i += len(word)
		return true
	}
	return false
}

// consume skips white space, then c if it comes next.
func (d *rowsDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *rowsDecoder) space() { d.i = skipSpace(d.s, d.i) }

func (d *rowsDecoder) end() bool {
	d.space()
	return d.i == len(d.s)
}

func skipSpace[T string | []byte](s T, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// isJSONNumber reports whether tok is a number in JSON's grammar, which
// is narrower than ParseFloat's (no '+', hex, "Inf", '_' or bare '.').
func isJSONNumber(tok string) bool {
	digits := func(i int) int {
		for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	switch {
	case i < len(tok) && tok[i] == '0':
		i++
	case i < len(tok) && '1' <= tok[i] && tok[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(tok)
}

// skipValue returns the end of the value starting at s[i] without
// validating it: a string runs to its closing quote, an array or object
// to its matching bracket, anything else to the next delimiter. It
// reports false when a string or bracket does not close.
func skipValue(s []byte, i int) (int, bool) {
	depth := 0
	for ; i < len(s); i++ {
		switch s[i] {
		case '"':
			// Jump from quote to quote; one after an odd run of
			// backslashes is escaped.
			for {
				q := bytes.IndexByte(s[i+1:], '"')
				if q < 0 {
					return 0, false
				}
				j := i + 1 + q
				k := j - 1
				for k > i && s[k] == '\\' {
					k--
				}
				if i = j; (j-1-k)%2 == 0 {
					break
				}
			}
		case '[', '{':
			depth++
			continue
		case ']', '}':
			if depth--; depth < 0 {
				return i, true // a scalar ended at its list's close
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, true
			}
			continue
		default:
			continue
		}
		if depth == 0 {
			return i + 1, true
		}
	}
	return i, depth == 0
}

// RowsSpan locates the result.rows array in a job document and returns
// its extent, so a decoder can read the rows with DecodeRows and leave
// the rest to encoding/json. It reports false unless the document is an
// object with exactly one member "result" holding an object with exactly
// one member "rows" holding an array — and no member name at either
// level that encoding/json could match to those otherwise (any
// case-folded spelling, escaped or non-ASCII names). The rows are
// skipped over once.
func RowsSpan(doc []byte) (start, end int, ok bool) {
	results := 0
	_, ok = walkObject(doc, 0, "result", func(vs int) (int, bool) {
		if results++; results > 1 || doc[vs] != '{' {
			return 0, false
		}
		return walkObject(doc, vs, "rows", func(vs int) (int, bool) {
			if end > 0 || doc[vs] != '[' {
				return 0, false
			}
			start = vs
			end, ok = skipValue(doc, vs)
			return end, ok
		})
	})
	if !ok || end == 0 {
		return 0, 0, false
	}
	return start, end, true
}

// walkObject walks the object at doc[i:] and returns the index past
// its closing brace. The value of member key is read by member, which
// returns its end; every other value is skipped. It reports false on a
// malformed walk, on a member name that is escaped or non-ASCII, on one
// that only case-folds to key, and when member does.
func walkObject(doc []byte, i int, key string, member func(start int) (int, bool)) (int, bool) {
	if i = skipSpace(doc, i); i == len(doc) || doc[i] != '{' {
		return 0, false
	}
	if i = skipSpace(doc, i+1); i < len(doc) && doc[i] == '}' {
		return i + 1, true
	}
	for i < len(doc) && doc[i] == '"' {
		k := i + 1
		for i = k; i < len(doc) && doc[i] != '"'; i++ {
			if doc[i] == '\\' || doc[i] >= utf8.RuneSelf {
				return 0, false
			}
		}
		if i == len(doc) {
			return 0, false
		}
		name := doc[k:i]
		if i = skipSpace(doc, i+1); i == len(doc) || doc[i] != ':' {
			return 0, false
		}
		vs := skipSpace(doc, i+1)
		if vs == len(doc) {
			return 0, false
		}
		var ok bool
		switch {
		case string(name) == key:
			i, ok = member(vs)
		case bytes.EqualFold(name, []byte(key)):
			return 0, false
		default:
			i, ok = skipValue(doc, vs)
		}
		if !ok || i == vs {
			return 0, false
		}
		if i = skipSpace(doc, i); i < len(doc) && doc[i] == ',' {
			i = skipSpace(doc, i+1)
			continue
		}
		if i < len(doc) && doc[i] == '}' {
			return i + 1, true
		}
		return 0, false
	}
	return 0, false
}
