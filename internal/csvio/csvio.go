// Package csvio implements CSV reading and writing for the engine.
//
// The reader has two layers, mirroring the paper's design:
//
//   - a general tokenizer that splits lines into cells (quotes, escapes),
//     used for sampling and the exception paths; and
//   - a "generated" parser (ParseSpec.ParseLine) specialized to the
//     normal-case plan: it touches only the columns the pipeline actually
//     reads (projection pushdown into the parser, §6.2.2's end-to-end
//     advantage) and parses each directly into an unboxed slot of the
//     expected type. Any mismatch returns a BadParse code, which routes
//     the raw line to the exception row pool — the generated parser IS
//     the row classifier for CSV sources (§4.3). ParseLineVecs is its
//     columnar twin for record lists; ParseChunk runs it over a streamed
//     chunk a batch of records per call (chunkparse.go).
package csvio

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// NullValues are the cell spellings treated as NULL by default, matching
// the pipelines' conventions (the flights pipeline passes custom ones).
var DefaultNullValues = []string{""}

var (
	recordSep = []byte{'\n'}
	quoteSep  = []byte{'"'}
)

// nextTerminator returns the index of the first record-terminating '\n'
// at or after pos, or -1. pos must be a record boundary, so quote parity
// starts closed; with quotes set, a newline terminates a record only when
// an even number of '"' precede it in the record (RFC-4180: escaped ""
// toggles twice), and nq counts the '"' before it (before the end of
// data when there is none). The scan jumps newline to newline with the
// stdlib's vectorized IndexByte/Count instead of inspecting every byte.
func nextTerminator(data []byte, pos int, quotes bool) (nl, nq int) {
	for {
		i := bytes.IndexByte(data[pos:], '\n')
		if i < 0 {
			if quotes {
				nq += bytes.Count(data[pos:], quoteSep)
			}
			return -1, nq
		}
		nl = pos + i
		if quotes {
			nq += bytes.Count(data[pos:nl], quoteSep)
		}
		if nq&1 == 0 {
			return nl, nq
		}
		pos = nl + 1
	}
}

// trimCR drops the '\r' of a CRLF terminator from a record body.
func trimCR(rec []byte) []byte {
	if n := len(rec); n > 0 && rec[n-1] == '\r' {
		return rec[:n-1]
	}
	return rec
}

// SplitRecords splits raw CSV bytes into physical lines, respecting
// quoted fields that span cell boundaries (quoted newlines are kept
// within one record). The returned slices alias data.
func SplitRecords(data []byte) [][]byte {
	// Presize from the newline count (vectorized scan): quoted newlines
	// overestimate slightly, which only wastes a few spare slots.
	out := make([][]byte, 0, bytes.Count(data, recordSep)+1)
	// Quote-free data (every numeric file) never pays the parity counts.
	return appendRecords(out, data, len(data)+1, bytes.IndexByte(data, '"') >= 0)
}

// AppendRecords appends the first limit records SplitRecords would
// return for data to dst, without splitting the rest: sampling reads the
// first thousand records of a 16 MiB chunk.
func AppendRecords(dst [][]byte, data []byte, limit int) [][]byte {
	// Parity counting on quote-free records finds the same terminators.
	return appendRecords(dst, data, limit, true)
}

func appendRecords(out [][]byte, data []byte, limit int, quotes bool) [][]byte {
	start := 0
	for n := 0; n < limit && start < len(data); n++ {
		nl, _ := nextTerminator(data, start, quotes)
		if nl < 0 {
			if rec := trimCR(data[start:]); len(rec) > 0 {
				out = append(out, rec)
			}
			break
		}
		out = append(out, trimCR(data[start:nl]))
		start = nl + 1
	}
	return out
}

// SplitCells tokenizes one record into cells. Quoted cells are unescaped
// ("" -> "). The scratch slice is reused when capacity allows.
func SplitCells(line []byte, delim byte, scratch []string) []string {
	cells := scratch[:0]
	for i := 0; ; {
		text, next, last := splitCell(line, i, delim)
		cells = append(cells, string(text))
		if last {
			return cells
		}
		i = next
	}
}

// splitCell reads the cell starting at line[i] as SplitCells does and
// returns its text, the offset of the next cell and whether this was the
// record's last cell. A quoted cell loses its quotes and has "" unescaped;
// garbage after its closing quote is kept verbatim, and an unclosed quote
// runs to the end of the record (dirty data stays data, not an error).
// The text aliases line unless it had to be built.
func splitCell(line []byte, i int, delim byte) (text []byte, next int, last bool) {
	n := len(line)
	if i >= n || line[i] != '"' {
		start := i
		for i < n && line[i] != delim {
			i++
		}
		return line[start:i], i + 1, i >= n
	}
	i++
	start := i
	var built []byte // only for "" escapes and trailing garbage
	for i < n {
		if line[i] == '"' {
			if i+1 < n && line[i+1] == '"' {
				built = append(built, line[start:i+1]...)
				i += 2
				start = i
				continue
			}
			break
		}
		i++
	}
	text = line[start:i]
	if built != nil {
		text = append(built, text...)
	}
	if i < n {
		i++ // closing quote
	}
	if i < n && line[i] != delim {
		gs := i
		for i < n && line[i] != delim {
			i++
		}
		text = append(text[:len(text):len(text)], line[gs:i]...)
	}
	return text, i + 1, i >= n
}

// CountCells counts cells without materializing them. Quotes are only
// significant at the start of a cell, matching SplitCells.
func CountCells(line []byte, delim byte) int {
	count := 1
	i, n := 0, len(line)
	for i < n {
		if line[i] == '"' {
			i++
			for i < n {
				if line[i] == '"' {
					if i+1 < n && line[i+1] == '"' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
		}
		for i < n && line[i] != delim {
			i++
		}
		if i < n {
			count++
			i++
		}
	}
	return count
}

// FieldSpec describes one projected column of a generated parser.
type FieldSpec struct {
	// Col is the CSV column index.
	Col int
	// Type is the expected normal-case type (Option/Null allowed).
	Type types.Type
}

// ParseSpec is a parsing plan specialized to a sampled normal case: the
// expected column count, the projected fields and the null spellings.
type ParseSpec struct {
	Delim      byte
	NumCols    int
	Fields     []FieldSpec
	NullValues []string
	// maxCol caches the highest projected column.
	maxCol int
	// ops is ParseChunk's per-column op table (chunkparse.go).
	ops []colOp
	// general selects the general-case reading (NewGeneralParseSpec);
	// kinds caches each field's colvec.PayloadKind for it.
	general bool
	kinds   []fieldKind
}

type fieldKind struct {
	kind     types.Kind
	nullable bool
}

// NewParseSpec builds a parse plan. fields must be sorted by Col.
func NewParseSpec(delim byte, numCols int, fields []FieldSpec, nullValues []string) *ParseSpec {
	if nullValues == nil {
		nullValues = DefaultNullValues
	}
	maxCol := -1
	for i, f := range fields {
		if i > 0 && fields[i-1].Col >= f.Col {
			panic("csvio: fields must be sorted by column")
		}
		maxCol = f.Col
	}
	p := &ParseSpec{Delim: delim, NumCols: numCols, Fields: fields, NullValues: nullValues, maxCol: maxCol}
	p.buildOps()
	return p
}

// NewGeneralParseSpec builds a parse plan for the general case: its
// fields carry the general schema's types, and it reads a record as
// GeneralParse does — SplitCells' cells, each boxed by SniffValue — and
// accepts it only when it has numCols cells and every projected value is
// of its field's kind (or None, where the field's type is an Option or
// Null). An accepted record's vectors hold exactly GeneralParse's
// projected values; any other record is rejected (parseGeneral).
func NewGeneralParseSpec(delim byte, numCols int, fields []FieldSpec, nullValues []string) *ParseSpec {
	p := NewParseSpec(delim, numCols, fields, nullValues)
	p.general = true
	p.kinds = make([]fieldKind, len(fields))
	for i, f := range fields {
		p.kinds[i].kind, p.kinds[i].nullable = colvec.PayloadKind(f.Type)
	}
	return p
}

// IsNullCell reports whether the cell spells NULL under the plan.
func (p *ParseSpec) IsNullCell(cell string) bool {
	for _, nv := range p.NullValues {
		if cell == nv {
			return true
		}
	}
	return false
}

// ParseLine runs the generated parser on one record, writing the
// projected columns into out (len(out) must equal len(p.Fields)). It
// returns ExcBadParse when the line does not match the normal case —
// wrong column count or a cell that fails to parse as its expected type.
// Only the projected cells are materialized; skipped columns cost a scan
// only, and numeric cells parse straight from the input bytes without a
// string allocation (the "generated parser" advantage of §6.2.2).
func (p *ParseSpec) ParseLine(line []byte, out rows.Row) pyvalue.ExcKind {
	ec, _, _, _ := p.parseRow(line, out)
	return ec
}

// parseRow is ParseLine reporting where a rejected record failed: the
// index of the first projected field whose cell did not parse, with the
// cell's bytes (raw, or cell when it needed unescaping), or -1 when the
// column count was wrong.
func (p *ParseSpec) parseRow(line []byte, out rows.Row) (ec pyvalue.ExcKind, field int, raw []byte, cell string) {
	n := len(line)
	i := 0
	col := 0
	fi := 0
	for {
		wanted := fi < len(p.Fields) && p.Fields[fi].Col == col
		raw, cell = nil, ""
		quoted := false
		if i < n && line[i] == '"' {
			quoted = true
			start := i + 1
			i++
			escaped := false
			for i < n {
				c := line[i]
				if c == '"' {
					if i+1 < n && line[i+1] == '"' {
						escaped = true
						i += 2
						continue
					}
					break
				}
				i++
			}
			body := line[start:i]
			if i < n {
				i++ // closing quote
			}
			if wanted {
				if escaped {
					cell = strings.ReplaceAll(string(body), `""`, `"`)
				} else {
					raw = body
				}
			}
			for i < n && line[i] != p.Delim {
				i++ // tolerate trailing garbage
			}
		} else {
			start := i
			for i < n && line[i] != p.Delim {
				i++
			}
			if wanted {
				raw = line[start:i]
			}
		}
		if wanted {
			if ec := p.parseCellBytes(raw, cell, quoted, p.Fields[fi].Type, &out[fi]); ec != 0 {
				return ec, fi, raw, cell
			}
			fi++
		}
		col++
		if i >= n {
			break
		}
		i++ // delimiter
	}
	if col != p.NumCols || fi != len(p.Fields) {
		return pyvalue.ExcBadParse, -1, nil, ""
	}
	return 0, 0, nil, ""
}

// RejectCause says why the spec rejects a record: it names the first
// cell that does not parse as its field's type — the field index and
// the kind SniffValue reads in the cell: "empty", "null", "bool", "int",
// "float" or "str" — or returns -1 and "ragged" for a wrong column
// count. It parses the record again, so callers ask only for rejected
// records. scratch holds len(p.Fields) slots.
func (p *ParseSpec) RejectCause(line []byte, scratch rows.Row) (field int, kind string) {
	ec, field, raw, cell := p.parseRow(line, scratch)
	if ec == 0 || field < 0 {
		return -1, "ragged"
	}
	if raw != nil {
		cell = string(raw)
	}
	return field, sniffName(cell, p.NullValues)
}

// parseCellBytes parses one projected cell. raw holds the bytes unless
// the cell needed unescaping (then cell holds the text).
func (p *ParseSpec) parseCellBytes(raw []byte, cell string, quoted bool, t types.Type, out *rows.Slot) pyvalue.ExcKind {
	switch t.Kind() {
	case types.KindOption:
		if !quoted && p.isNullBytes(raw, cell) {
			*out = rows.Null()
			return 0
		}
		return p.parseCellBytes(raw, cell, quoted, t.Elem(), out)
	case types.KindNull:
		if !quoted && p.isNullBytes(raw, cell) {
			*out = rows.Null()
			return 0
		}
		return pyvalue.ExcBadParse
	case types.KindStr:
		if raw != nil {
			*out = rows.Str(string(raw))
		} else {
			*out = rows.Str(cell)
		}
		return 0
	case types.KindI64:
		v, ok := ParseI64Bytes(raw, cell)
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.I64(v)
		return 0
	case types.KindF64:
		var v float64
		var ok bool
		if raw != nil {
			v, ok = ParseF64Bytes(raw)
		} else {
			v, ok = ParseF64(cell)
		}
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.F64(v)
		return 0
	case types.KindBool:
		s := cell
		if raw != nil {
			s = string(raw) // bool cells are tiny; alloc is fine
		}
		v, ok := ParseBool(s)
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.Bool(v)
		return 0
	default:
		return pyvalue.ExcBadParse
	}
}

func (p *ParseSpec) isNullBytes(raw []byte, cell string) bool {
	if raw != nil {
		for _, nv := range p.NullValues {
			if string(raw) == nv { // no alloc: comparison special case
				return true
			}
		}
		return false
	}
	return p.IsNullCell(cell)
}

// ParseI64Bytes parses a strict integer from bytes (or from cell when
// raw is nil).
func ParseI64Bytes(raw []byte, cell string) (int64, bool) {
	if raw == nil {
		return ParseI64(cell)
	}
	return parseI64(raw)
}

// parseI64 parses a strict integer spelling (optional sign, digits). A
// value outside int64 is not an integer cell: it must leave the normal
// path as ExcBadParse, never wrap into a wrong number that stays on it.
func parseI64[T string | []byte](s T) (int64, bool) {
	v, end := scanI64(s, 0)
	return v, end == len(s)
}

// scanI64 is parseI64's digit loop over s[i:]: it stops at the first
// byte that is not a digit and returns its index as end, or -1 when no
// digit was read or the magnitude left int64. ParseChunk runs it on the
// chunk in place and checks that end is a cell terminator.
func scanI64[T string | []byte](s T, i int) (v int64, end int) {
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	// Accumulate the magnitude unsigned up to 2^63 (|MinInt64|); below
	// maxMag/10 another digit cannot overflow, so the exact test runs
	// only from the 19th digit on.
	const maxMag = uint64(1) << 63
	start := i
	var m uint64
	for ; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 {
			break
		}
		if m >= maxMag/10 && m > (maxMag-d)/10 {
			return 0, -1
		}
		m = m*10 + d
	}
	switch {
	case i == start:
		return 0, -1
	case neg:
		return -int64(m), i // m == 2^63 wraps to MinInt64, as it should
	case m == maxMag:
		return 0, -1
	}
	return int64(m), i
}

// ParseF64Bytes parses a float from bytes without allocating for plain
// decimal spellings ("123", "-4.5", "43503.12"); other spellings fall
// back to strconv.
func ParseF64Bytes(raw []byte) (float64, bool) {
	if f, ok := parseDecimal(raw); ok {
		return f, true
	}
	if len(raw) == 0 {
		return 0, false
	}
	return parseF64Slow(string(raw))
}

// pow10Table holds the powers of ten a float64 represents exactly.
var pow10Table = [23]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseDecimal is the Clinger fast path for [sign]digits[.digits]: with
// every digit folded into one integer mantissa below 2^53 and at most 22
// fraction digits, mantissa and 10^fdigits are both exact float64s, so
// the single IEEE division is correctly rounded — bit-identical to
// strconv.ParseFloat (as is the lone conversion of an integer spelling).
// ok is false for every other spelling (exponents, inf/nan, hex,
// underscores, "1.", ".5", too many digits).
func parseDecimal[T string | []byte](s T) (float64, bool) {
	f, end := scanDecimal(s, 0)
	return f, end == len(s)
}

// scanDecimal is parseDecimal's digit loop over s[i:]: it stops after
// [sign]digits[.digits] and returns the index it stopped at as end, or
// -1 when that prefix is not a fast-path spelling. ParseChunk runs it on
// the chunk in place and checks that end is a cell terminator.
func scanDecimal[T string | []byte](s T, i int) (f float64, end int) {
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var m uint64
	digits := 0
	for i < len(s) && s[i]-'0' <= 9 {
		m = m*10 + uint64(s[i]-'0')
		i++
		digits++
	}
	if digits == 0 {
		return 0, -1
	}
	fdigits := 0
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i]-'0' <= 9 {
			m = m*10 + uint64(s[i]-'0')
			i++
			fdigits++
		}
		if fdigits == 0 {
			return 0, -1
		}
	}
	// 19 digits cannot overflow the uint64 mantissa.
	if digits+fdigits > 19 {
		return 0, -1
	}
	f = float64(m) // an integer spelling: one correctly rounded conversion
	if fdigits > 0 {
		if m >= 1<<53 || fdigits >= len(pow10Table) {
			return 0, -1
		}
		f /= pow10Table[fdigits]
	}
	if neg {
		f = -f
	}
	return f, i
}

// parseCell parses one cell against its expected type.
func (p *ParseSpec) parseCell(cell string, quoted bool, t types.Type, out *rows.Slot) pyvalue.ExcKind {
	switch t.Kind() {
	case types.KindOption:
		if !quoted && p.IsNullCell(cell) {
			*out = rows.Null()
			return 0
		}
		return p.parseCell(cell, quoted, t.Elem(), out)
	case types.KindNull:
		if !quoted && p.IsNullCell(cell) {
			*out = rows.Null()
			return 0
		}
		return pyvalue.ExcBadParse
	case types.KindStr:
		*out = rows.Str(cell)
		return 0
	case types.KindI64:
		v, ok := ParseI64(cell)
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.I64(v)
		return 0
	case types.KindF64:
		v, ok := ParseF64(cell)
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.F64(v)
		return 0
	case types.KindBool:
		v, ok := ParseBool(cell)
		if !ok {
			return pyvalue.ExcBadParse
		}
		*out = rows.Bool(v)
		return 0
	default:
		return pyvalue.ExcBadParse
	}
}

// ParseI64 parses a strict integer cell (optional sign, digits).
func ParseI64(s string) (int64, bool) { return parseI64(s) }

// ParseF64 parses a float cell (accepts integer spellings too).
func ParseF64(s string) (float64, bool) {
	if f, ok := parseDecimal(s); ok {
		return f, true
	}
	if s == "" {
		return 0, false
	}
	return parseF64Slow(s)
}

func parseF64Slow(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// ParseBool parses boolean cells: true/false (any case), 0/1 — the §4.2
// heuristics.
func ParseBool(s string) (bool, bool) {
	switch s {
	case "0":
		return false, true
	case "1":
		return true, true
	}
	switch strings.ToLower(s) {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return false, false
}

// GeneralParse parses every cell of a record as the most general type
// for the exception paths: null spellings become None, numeric-looking
// cells numbers, booleans booleans, everything else strings. This
// mirrors the interpreter's view of a CSV row.
func GeneralParse(line []byte, delim byte, nullValues []string) []pyvalue.Value {
	cells := SplitCells(line, delim, nil)
	out := make([]pyvalue.Value, len(cells))
	for i, c := range cells {
		out[i] = SniffValue(c, nullValues)
	}
	return out
}

// SniffValue converts a raw cell into the boxed value its spelling
// suggests.
func SniffValue(cell string, nullValues []string) pyvalue.Value {
	switch c := sniff(cell, nullValues); c.kind {
	case types.KindNull:
		return pyvalue.None{}
	case types.KindBool:
		return pyvalue.Bool(c.b)
	case types.KindI64:
		return pyvalue.Int(c.i)
	case types.KindF64:
		return pyvalue.Float(c.f)
	default:
		return pyvalue.Str(cell)
	}
}

// sniffed is SniffValue's reading of a cell, unboxed: its kind (KindNull
// for a null spelling, KindStr for the cell text itself) and value.
type sniffed struct {
	kind types.Kind
	b    bool
	i    int64
	f    float64
}

func sniff(cell string, nullValues []string) sniffed {
	for _, nv := range nullValues {
		if cell == nv {
			return sniffed{kind: types.KindNull}
		}
	}
	if cell == "" {
		return sniffed{kind: types.KindStr}
	}
	// Only a bool word starts with t or f, and only a number that is not
	// inf or nan — the float readings without '.', 'e' or 'E' — with a
	// sign, a digit or a '.': every other cell is a string, without the
	// parsers' failed attempts. Plain 0/1 cells stay ints when boxing
	// generally; the bool reading only wins when a column's histogram
	// says so.
	switch c := cell[0]; {
	case c == 't' || c == 'T' || c == 'f' || c == 'F':
		if b, ok := ParseBool(cell); ok {
			return sniffed{kind: types.KindBool, b: b}
		}
		return sniffed{kind: types.KindStr}
	case c != '+' && c != '-' && c != '.' && (c < '0' || c > '9'):
		return sniffed{kind: types.KindStr}
	}
	if v, ok := ParseI64(cell); ok {
		return sniffed{kind: types.KindI64, i: v}
	}
	if f, ok := ParseF64(cell); ok && strings.ContainsAny(cell, ".eE") {
		return sniffed{kind: types.KindF64, f: f}
	}
	return sniffed{kind: types.KindStr}
}

// sniffName names a cell's sniffed kind for reject diagnostics: "empty"
// for the empty cell, "null" for another null spelling, else the kind
// SniffValue would box it as.
func sniffName(cell string, nullValues []string) string {
	switch sniff(cell, nullValues).kind {
	case types.KindNull:
		if cell == "" {
			return "empty"
		}
		return "null"
	case types.KindBool:
		return "bool"
	case types.KindI64:
		return "int"
	case types.KindF64:
		return "float"
	default:
		return "str"
	}
}

// ---- Writer ----

// Writer writes rows as CSV with minimal quoting. Internally it is a
// plain byte buffer with per-cell append methods, so the columnar render
// path emits cells without materializing intermediate strings; the
// row-level methods below are built on the same cells.
type Writer struct {
	buf     []byte
	scratch []byte // requote staging, reused
	delim   byte
}

// NewWriter returns a Writer using the given delimiter.
func NewWriter(delim byte) *Writer { return &Writer{delim: delim} }

// NewWriterBuf returns a writer rendering into buf's storage (length is
// reset), for callers that recycle output buffers across tasks: a
// steady-state pooled buffer is already output-sized, so the writer
// never pays doubling growth or large-allocation zeroing.
func NewWriterBuf(delim byte, buf []byte) *Writer {
	return &Writer{delim: delim, buf: buf[:0]}
}

// WriteHeader writes the column-name row.
func (w *Writer) WriteHeader(names []string) {
	for i, n := range names {
		if i > 0 {
			w.buf = append(w.buf, w.delim)
		}
		w.CellString(n)
	}
	w.buf = append(w.buf, '\n')
}

// WriteRow renders one row.
func (w *Writer) WriteRow(r rows.Row) {
	for i, s := range r {
		if i > 0 {
			w.buf = append(w.buf, w.delim)
		}
		w.CellSlot(s)
	}
	w.buf = append(w.buf, '\n')
}

// WriteValues renders one boxed row (exception-path results).
func (w *Writer) WriteValues(vs []pyvalue.Value) {
	for i, v := range vs {
		if i > 0 {
			w.buf = append(w.buf, w.delim)
		}
		if _, isNone := v.(pyvalue.None); isNone {
			continue
		}
		w.CellString(pyvalue.ToStr(v))
	}
	w.buf = append(w.buf, '\n')
}

// ---- Per-cell append API (columnar render path) ----
//
// A record is emitted as Cell*([delim] Cell*)... EndRecord. Every Cell
// method finishes with the minimal-quoting check, so output is
// byte-identical with the row-level writers.

// Delim emits the column separator.
func (w *Writer) Delim() { w.buf = append(w.buf, w.delim) }

// EndRecord terminates the current record.
func (w *Writer) EndRecord() { w.buf = append(w.buf, '\n') }

// CellNull emits an empty cell (None renders as nothing).
func (w *Writer) CellNull() {}

// CellBool emits a bool cell.
func (w *Writer) CellBool(b bool) {
	if b {
		w.buf = append(w.buf, "True"...)
	} else {
		w.buf = append(w.buf, "False"...)
	}
}

// CellI64 emits an integer cell.
func (w *Writer) CellI64(v int64) {
	start := len(w.buf)
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.finishCell(start)
}

// CellF64 emits a float cell with Python repr spelling.
func (w *Writer) CellF64(f float64) {
	start := len(w.buf)
	w.buf = pyvalue.AppendFloatRepr(w.buf, f)
	w.finishCell(start)
}

// CellStrBytes emits a string cell from raw bytes.
func (w *Writer) CellStrBytes(b []byte) {
	start := len(w.buf)
	w.buf = append(w.buf, b...)
	w.finishCell(start)
}

// CellString emits a string cell.
func (w *Writer) CellString(s string) {
	start := len(w.buf)
	w.buf = append(w.buf, s...)
	w.finishCell(start)
}

// CellSlot emits an arbitrary slot cell.
func (w *Writer) CellSlot(s rows.Slot) {
	start := len(w.buf)
	w.buf = s.AppendRender(w.buf)
	w.finishCell(start)
}

// finishCell applies minimal quoting to the cell rendered at buf[start:]:
// if the body contains the delimiter, a quote or a line break, it is
// rewritten in place as a quoted cell with doubled quotes.
func (w *Writer) finishCell(start int) {
	needs := false
	for i := start; i < len(w.buf); i++ {
		c := w.buf[i]
		if c == w.delim || c == '"' || c == '\n' || c == '\r' {
			needs = true
			break
		}
	}
	if !needs {
		return
	}
	w.scratch = append(w.scratch[:0], w.buf[start:]...)
	w.buf = append(w.buf[:start], '"')
	for _, c := range w.scratch {
		if c == '"' {
			w.buf = append(w.buf, '"', '"')
			continue
		}
		w.buf = append(w.buf, c)
	}
	w.buf = append(w.buf, '"')
}

// WriteRaw appends pre-rendered CSV bytes.
func (w *Writer) WriteRaw(b []byte) { w.buf = append(w.buf, b...) }

// Bytes returns a copy of the accumulated output (the writer may be
// reset and reused by pooled tasks after the caller keeps the bytes).
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// Take transfers ownership of the accumulated output without copying
// and leaves the writer empty. Use when the writer is done for good
// (per-task sink buffers the engine keeps whole).
func (w *Writer) Take() []byte {
	out := w.buf
	w.buf = nil
	return out
}

// Grow ensures capacity for n more bytes, so callers that know the
// output size (stitching pre-rendered partitions) avoid doubling
// copies.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	buf := make([]byte, len(w.buf), len(w.buf)+n)
	copy(buf, w.buf)
	w.buf = buf
}

// Len returns the accumulated output size.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer, keeping capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// WriteFile flushes the accumulated output to path.
func (w *Writer) WriteFile(path string) error {
	if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
		return fmt.Errorf("csvio: writing %s: %w", path, err)
	}
	return nil
}
