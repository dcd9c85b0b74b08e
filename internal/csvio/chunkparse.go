package csvio

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// Batch-at-a-time parsing of a streamed chunk: the generated parser
// specialized to the sampled schema (§4.4, §5) run over a batch of
// records per call, with no record list and no per-cell type dispatch.

// cellOp is what ParseChunk does with the cells of one CSV column.
type cellOp uint8

const (
	// opSkip scans past a column the plan does not project.
	opSkip cellOp = iota
	// opI64 / opF64 parse the cell in place with scanWordI64 /
	// scanDecimal.
	opI64
	opF64
	// opStr appends the cell's bytes (after the null test if nullable).
	opStr
	// opCell hands every cell to appendCell: bool and null-typed
	// columns, and numeric columns one of whose null spellings the
	// in-place loop would read as a number.
	opCell
	// opLazyI64 / opLazyF64 are opI64 / opF64 of a lazy field: a cell of
	// the plain shape (plainI64 / plainDecimal) is checked in place and
	// left unconverted — its chunk offset in the vector — until
	// ChunkBatch.Ensure converts it; any other cell takes opI64 / opF64's
	// path and is converted in the walk.
	opLazyI64
	opLazyF64
)

// colOp is the op table entry of one CSV column; field indexes p.Fields
// and the vectors, lazy the batch's lazy columns (lazy ops only).
type colOp struct {
	op       cellOp
	nullable bool
	field    int32
	lazy     int32
}

// buildOps fills the spec's op table: one entry per column up to the
// last projected one.
func (p *ParseSpec) buildOps() {
	p.ops = make([]colOp, p.maxCol+1)
	for fi, f := range p.Fields {
		k, nullable := colvec.PayloadKind(f.Type)
		op := opCell
		switch {
		case k == types.KindI64 && !p.nullLooksLike(nullable, func(s string) bool { _, ok := parseI64(s); return ok }):
			op = opI64
		case k == types.KindF64 && !p.nullLooksLike(nullable, func(s string) bool { _, ok := parseDecimal(s); return ok }):
			op = opF64
		case k == types.KindStr:
			op = opStr
		}
		lazy := int32(len(p.lazy))
		if f.Lazy && (op == opI64 || op == opF64) {
			op += opLazyI64 - opI64
			p.lazy = append(p.lazy, int32(fi))
		}
		p.ops[f.Col] = colOp{op: op, nullable: nullable, field: int32(fi), lazy: lazy}
	}
}

// IsLazy reports whether ParseChunk leaves the int or float cells of
// field fi unconverted until ChunkBatch.Ensure reads them: the field
// asked for it (FieldSpec.Lazy) and its cells take the in-place path.
func (p *ParseSpec) IsLazy(fi int) bool {
	return !p.general && p.ops[p.Fields[fi].Col].op >= opLazyI64
}

// HasLazy reports whether any field is lazy (IsLazy).
func (p *ParseSpec) HasLazy() bool { return len(p.lazy) > 0 }

// nullLooksLike reports whether a nullable column has a null spelling
// the in-place number loop would accept (a "0" or "-1" null): appendCell
// must see those cells first.
func (p *ParseSpec) nullLooksLike(nullable bool, number func(string) bool) bool {
	if !nullable {
		return false
	}
	for _, nv := range p.NullValues {
		if number(nv) {
			return true
		}
	}
	return false
}

// ChunkBatch is ParseChunk's reusable output for one batch of records.
type ChunkBatch struct {
	// Raws holds the accepted records (CRLF's CR trimmed), one per row
	// appended to the vectors. They alias the chunk.
	Raws [][]byte
	// Rejects lists the records that did not parse, in input order.
	Rejects []Reject
	// Records counts the records the call consumed, accepted or not.
	Records int
	// Slow counts the records handed to ParseLineVecs.
	Slow int

	// LazyCells counts the cells of the accepted records the walk checked
	// but did not convert (lazy fields only); Converted counts those
	// Ensure has converted since the call.
	LazyCells, Converted int

	// qf is where the last search for a '"' stopped: the chunk holds no
	// '"' between the current record's start and qf (see bound).
	qf int

	// data is the chunk a lazy cell's placeholder offsets into, base the
	// vectors' length on entry, lazy the state of each of the spec's lazy
	// fields and walked the count of their cells the walk converted.
	data   []byte
	base   int
	lazy   []lazyCol
	walked int
}

// lazyCol is one lazy field's batch state: its vector, whose payload at
// a row the walk only checked holds the cell's chunk offset, and the rows
// appended since the call began whose payload holds the value — the
// cells the walk converted and those Ensure has since.
type lazyCol struct {
	vec  *colvec.Vec
	done colvec.Bitmap
}

// beginLazy binds the batch's lazy state to this call's chunk and vectors.
func (b *ChunkBatch) beginLazy(p *ParseSpec, data []byte, vecs []*colvec.Vec) {
	b.LazyCells, b.Converted, b.walked, b.data, b.base = 0, 0, 0, data, 0
	if len(vecs) > 0 {
		b.base = vecs[0].Len()
	}
	if cap(b.lazy) < len(p.lazy) {
		b.lazy = make([]lazyCol, len(p.lazy))
	}
	b.lazy = b.lazy[:len(p.lazy)]
	for k, fi := range p.lazy {
		b.lazy[k].vec = vecs[fi]
		b.lazy[k].done.Reset()
	}
}

// endLazy counts the batch's lazy cells: every row of a lazy field less
// those the walk converted.
func (b *ChunkBatch) endLazy() {
	for k := range b.lazy {
		b.LazyCells += b.lazy[k].vec.Len() - b.base
	}
	b.LazyCells -= b.walked
}

// deferCell appends a checked, unconverted cell of lazy column op at
// chunk offset off: the offset is its placeholder (exact in a float64).
func deferCell(op colOp, v *colvec.Vec, off int) {
	if op.op == opLazyF64 {
		v.AppendF64(float64(off))
	} else {
		v.AppendI64(int64(off))
	}
}

// walkConverted marks the cell lazy column k last appended as one the
// walk converted.
func (b *ChunkBatch) walkConverted(k int32) {
	l := &b.lazy[k]
	l.done.Set(l.vec.Len() - 1 - b.base)
	b.walked++
}

// rollback truncates the vectors to a record's start, n0 rows, and drops
// the record's marks.
func (b *ChunkBatch) rollback(vecs []*colvec.Vec, n0 int) {
	rollbackVecs(vecs, n0)
	for k := range b.lazy {
		l := &b.lazy[k]
		if r := n0 - b.base; l.done.Get(r) {
			l.done[r>>6] &^= 1 << (uint(r) & 63)
			b.walked--
		}
	}
}

// Ensure converts the cells of v at the rows of sel that the walk only
// checked, so that v's payload holds their values there; v is one of the
// vectors the last ParseChunk call filled, and its chunk must still be
// live. A row converted before, or of a field that is not lazy, costs a
// test. Every reader of a lazy field's vector calls it first, with the
// rows it is about to read.
func (b *ChunkBatch) Ensure(v *colvec.Vec, sel []int32) {
	if b.Converted == b.LazyCells {
		return
	}
	for k := range b.lazy {
		if b.lazy[k].vec == v {
			b.convert(&b.lazy[k], sel)
			return
		}
	}
}

// EnsureAll is Ensure on every vector of the batch.
func (b *ChunkBatch) EnsureAll(sel []int32) {
	for k := range b.lazy {
		if b.Converted == b.LazyCells {
			return
		}
		b.convert(&b.lazy[k], sel)
	}
}

// convert fills l's unconverted cells at sel. A checked cell is of the
// plain shape, which scanDecimal / scanWordI64 read exactly as the eager
// walk would have: the value is the eager parse's, bit for bit.
//
//tuplex:kernel
func (b *ChunkBatch) convert(l *lazyCol, sel []int32) {
	data, v, base, n := b.data, l.vec, b.base, 0
	rows := v.Len()
	for _, r := range sel {
		i := int(r) - base
		if i < 0 || int(r) >= rows || l.done.Get(i) {
			continue
		}
		if v.Kind == types.KindF64 {
			v.F[r], _ = scanDecimal(data, int(v.F[r]))
		} else {
			v.I[r], _ = scanWordI64(data, int(v.I[r]))
		}
		l.done.Set(i)
		n++
	}
	b.Converted += n
}

// Reject is one record the parser routes to the exception pool
// (RejectCause says why).
type Reject struct {
	// Rec is the record's index within the batch.
	Rec int
	Raw []byte
	EC  pyvalue.ExcKind
}

// ParseChunk parses up to limit records of data, starting at the record
// boundary pos, into vecs (vecs[i] receives p.Fields[i]; all the same
// length on entry) and returns the offset of the first record it did not
// consume — len(data) once the chunk is done. It is SplitRecords and
// then ParseLineVecs on each record, fused into one walk per record
// (parseLine):
//
//   - The cells are walked as ParseLineVecs walks them, but the spec's op
//     table decides per column: unprojected cells are scanned past,
//     string cells find their end with one vectorized IndexByte and
//     append their bytes, and int and float cells parse in
//     place — the digit loop of scanI64 / scanDecimal stops at the byte
//     that must end the cell, so no separate delimiter scan runs. Every
//     cell off those paths (a quoted cell, a null spelling, an exponent,
//     too many digits) goes through appendCell on its exact bytes.
//   - A record of in-place numbers is read once: the digit loop that
//     stops at a delimiter also stops at the '\n' (or CRLF) that ends the
//     record. The record's end is searched for only when the walk first
//     reaches a cell that needs it (bound): one vectorized IndexByte finds
//     the next newline, and when a '"' comes before it (quotes are
//     searched a window ahead, so quote-free data pays no per-record
//     search) SplitRecords' quote-parity scan (nextTerminator) cuts it.
//   - A record holding a '"' that does not open, close or escape within
//     a quoted cell is handed to ParseLineVecs whole and counted in Slow.
//   - A general spec (NewGeneralParseSpec) reads every record with
//     parseGeneral.
//   - A lazy field's cells (FieldSpec.Lazy) are checked in the walk and
//     converted on read: a cell of the plain shape — [sign]digits of at
//     most 18 digits for an int, [sign]digits[.digits] of at most 15
//     for a float — is only scanned for that shape and left in the
//     vector as its chunk offset until ChunkBatch.Ensure converts it for
//     a reader. Every other cell (a sign alone, a null spelling,
//     an exponent, more digits) is converted in the walk as an eager
//     field's is. A plain cell always converts, so which records are
//     accepted or rejected is decided in the walk either way.
//   - An int cell of 1 to 7 unsigned digits is read from one 8-byte word
//     (scanWordI64), checked and converted in a few word operations.
//
// Record boundaries, raw bytes, values (once ensured) and rejects are
// therefore those of SplitRecords + ParseLineVecs; FuzzParseChunk holds
// the two to it.
//
//tuplex:kernel
func (p *ParseSpec) ParseChunk(data []byte, pos, limit int, vecs []*colvec.Vec, b *ChunkBatch) int {
	raws, recs, n := b.Raws[:0], 0, len(data)
	b.Rejects, b.Slow, b.qf = b.Rejects[:0], 0, pos
	b.beginLazy(p, data, vecs)
	lead, dl := p.leadNumbers()
	for ; recs < limit; recs++ {
		if rest := n - pos; rest == 0 || rest == 1 && data[pos] == '\r' {
			pos = n // an empty final record, which SplitRecords drops
			break
		}
		// Every accepted record added one row to each vector.
		end, next, ec := p.parseLine(data, pos, b.base+len(raws), lead, dl, vecs, b)
		if ec != 0 {
			b.Rejects = append(b.Rejects, Reject{Rec: recs, Raw: data[pos:end], EC: ec})
		} else {
			raws = append(raws, data[pos:end])
		}
		pos = next
	}
	b.Raws, b.Records = raws, recs
	if len(b.lazy) > 0 {
		b.endLazy()
	}
	return pos
}

// quoteWindow bounds one search for the next '"', so a batch's searches
// cover about the bytes it parses, not the rest of the chunk.
const quoteWindow = 4 << 10

// bound finds the end of the record starting at data[pos], whose bytes
// before from hold no '"' and no '\n': end is the end of its body (a
// CRLF's CR trimmed), next the start of the record after it (len(data)
// when none) and nq the count of its '"'.
func (b *ChunkBatch) bound(data []byte, pos, from int) (end, next, nq int) {
	n := len(data)
	nl := n
	if j := bytes.IndexByte(data[from:], '\n'); j >= 0 {
		nl = from + j
	}
	qf := max(b.qf, from)
	for qf < nl && data[qf] != '"' {
		w := data[qf:min(n, qf+quoteWindow)]
		if j := bytes.IndexByte(w, '"'); j >= 0 {
			qf += j
		} else {
			qf += len(w)
		}
	}
	b.qf = qf
	if qf < nl {
		if nl, nq = nextTerminator(data, pos, true); nl < 0 {
			nl = n
		}
	}
	end = nl
	if end > pos && data[end-1] == '\r' {
		end--
	}
	return end, min(nl+1, n), nq
}

// leadNumbers reports whether a record opens with numbers' in-place
// numbers, and the delimiter numbers reads: -1 for a '"' or newline
// delimiter, which it reads no cell past.
func (p *ParseSpec) leadNumbers() (lead bool, dl int) {
	dl = int(p.Delim)
	if p.Delim == '"' || p.Delim == '\n' || p.Delim == '\r' {
		dl = -1
	}
	if p.general || len(p.ops) == 0 {
		return false, dl
	}
	op := p.ops[0].op
	return op == opI64 || op == opF64 || op >= opLazyI64, dl
}

// parseLine parses the record starting at data[pos] into vecs and
// returns the end of its body (a CRLF's CR trimmed) and the start of the
// next record; the vectors hold n0 rows, and lead and dl are
// leadNumbers'. It is the only walk over the record. Its first leg
// (numbers) reads in-place numbers straight off the chunk; when the
// terminator that stops the last of them ends the record, the record was
// read once. Otherwise, at the first cell that needs the record's end —
// a string, skipped, quoted or appendCell cell, or a number followed by
// anything but a delimiter or a terminator — bound finds it, and cells
// walks on within it. A record handed to ParseLineVecs counts in b.Slow;
// a rejected record leaves the vectors as it found them.
//
//tuplex:kernel
func (p *ParseSpec) parseLine(data []byte, pos, n0 int, lead bool, dl int, vecs []*colvec.Vec, b *ChunkBatch) (end, next int, ec pyvalue.ExcKind) {
	i, col := pos, 0
	if lead {
		var ended bool
		if i, col, ended = p.numbers(data, pos, dl, vecs, b); ended {
			end, next = i, min(i+1, len(data))
			if i < len(data) && data[i] == '\r' {
				next = min(i+2, len(data))
			}
			if col != p.NumCols || col <= p.maxCol {
				b.rollback(vecs, n0)
				return end, next, pyvalue.ExcBadParse
			}
			return end, next, 0
		}
	}
	end, next, nq := b.bound(data, pos, i)
	line := data[pos:end]
	if p.general {
		return end, next, p.parseGeneral(line, vecs)
	}
	ec, slow := p.cells(line, i-pos, col, nq, n0, vecs, b)
	if slow {
		b.Slow++
	}
	return end, next, ec
}

// cells walks the rest of the record line, a slice of the chunk holding
// nq '"', from the cell at line[i], column col; the vectors held n0 rows
// when the record began. slow reports the record went to ParseLineVecs.
//
//tuplex:kernel
func (p *ParseSpec) cells(line []byte, i, col, nq, n0 int, vecs []*colvec.Vec, b *ChunkBatch) (ec pyvalue.ExcKind, slow bool) {
	ops, delim, n := p.ops, p.Delim, len(line)
	quotes := 0
	for {
		var op colOp // opSkip past the last projected column
		if col < len(ops) {
			op = ops[col]
		}
		// In place: a number whose digits run to the cell's end. A lazy
		// field's plain cell is only checked (deferCell); its other
		// numbers are converted as an eager field's are, and marked so.
		done := false
		switch op.op {
		case opI64, opF64:
			if e := inPlace(line, i, op.op == opF64, vecs[op.field], delim); e >= 0 {
				i, done = e, true
			}
		case opLazyI64, opLazyF64:
			if e := plainCell(op, line, i); e == n || e >= 0 && line[e] == delim {
				deferCell(op, vecs[op.field], cap(b.data)-cap(line)+i)
				i, done = e, true
			} else if e := inPlace(line, i, op.op == opLazyF64, vecs[op.field], delim); e >= 0 {
				b.walkConverted(op.lazy)
				i, done = e, true
			}
		}
		switch {
		case done:
		case i < n && line[i] == '"':
			body, escaped, next, ok := quotedCell(line, i, delim)
			if !ok {
				return p.slowLine(line, n0, vecs, b), true
			}
			i = next
			quotes += 2
			var cell string
			raw := body
			if escaped {
				quotes += bytes.Count(body, quoteSep)
				cell, raw = strings.ReplaceAll(string(body), `""`, `"`), nil
			}
			if op.op != opSkip {
				ec = p.appendCell(raw, cell, true, p.Fields[op.field].Type, vecs[op.field])
				if ec == 0 && op.op >= opLazyI64 {
					b.walkConverted(op.lazy)
				}
			}
		default:
			cs := i
			if op.op == opStr {
				// String cells run long enough to pay for a vectorized
				// search; skipped ones are mostly short or empty.
				if j := bytes.IndexByte(line[i:], delim); j >= 0 {
					i += j
				} else {
					i = n
				}
			} else {
				for i < n && line[i] != delim {
					i++
				}
			}
			switch op.op {
			case opSkip:
			case opStr:
				if raw := line[cs:i]; !op.nullable || !p.isNullBytes(raw, "") {
					vecs[op.field].AppendStrBytes(raw)
					break
				}
				vecs[op.field].AppendNull()
			default:
				ec = p.appendCell(line[cs:i], "", false, p.Fields[op.field].Type, vecs[op.field])
				if ec == 0 && op.op >= opLazyI64 {
					b.walkConverted(op.lazy)
				}
			}
		}
		if ec != 0 {
			b.rollback(vecs, n0)
			return ec, false
		}
		col++
		if i >= n {
			break
		}
		i++ // delimiter
	}
	switch {
	case quotes != nq:
		return p.slowLine(line, n0, vecs, b), true
	case col != p.NumCols || col <= p.maxCol:
		b.rollback(vecs, n0)
		return pyvalue.ExcBadParse, false
	}
	return 0, false
}

// slowLine undoes the walk's appends for the record line, which the
// vectors held n0 rows before, and hands it to ParseLineVecs, which
// converts every cell it accepts.
func (p *ParseSpec) slowLine(line []byte, n0 int, vecs []*colvec.Vec, b *ChunkBatch) pyvalue.ExcKind {
	b.rollback(vecs, n0)
	ec := p.ParseLineVecs(line, vecs)
	if ec == 0 {
		for k := range b.lazy {
			b.walkConverted(int32(k))
		}
	}
	return ec
}

// numbers is parseLine's first leg: from the record's start data[i] it
// appends in-place numbers, cell after cell, while each one's digits run
// to a delimiter, and returns the offset and column of the first cell
// that is not one — or, with ended, the offset of the record terminator
// (or the chunk's end) that stopped the last. A lazy field's plain cell
// is checked, not converted (deferCell); its other cells are converted
// here and marked so. dl is the delimiter, -1 for none (leadNumbers):
// then it reads one cell at most. Kept apart from parseLine's other
// cases, its loop runs in registers.
func (p *ParseSpec) numbers(data []byte, i, dl int, vecs []*colvec.Vec, b *ChunkBatch) (int, int, bool) {
	ops := p.ops
	for col := 0; col < len(ops); {
		op := ops[col]
		var e int
		switch op.op {
		case opLazyF64:
			// A plain cell is checked here and converted on read; any
			// other falls through to opF64 and is marked converted. The
			// lazy cases call their shape checks directly: a call through
			// plainCell costs the loop a tenth of its speed.
			if e = plainDecimal(data, i); e >= 0 {
				if e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
					return i, col, false // the scan stops there too
				}
				deferCell(op, vecs[op.field], i)
				break
			}
			fallthrough
		case opF64:
			var x float64
			if x, e = scanDecimal(data, i); e < 0 || e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
				return i, col, false
			}
			vecs[op.field].AppendF64(x)
			if op.op == opLazyF64 {
				b.walkConverted(op.lazy)
			}
		case opLazyI64:
			if e = plainI64(data, i); e >= 0 {
				if e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
					return i, col, false
				}
				deferCell(op, vecs[op.field], i)
				break
			}
			fallthrough
		case opI64:
			// scanWordI64, written out: the call would crowd the loop out
			// of registers.
			if w, k := plainWord(data, i); k > 0 {
				if e = i + k; e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
					return i, col, false
				}
				vecs[op.field].AppendI64(int64(wordDigits(w, k)))
				break
			}
			var x int64
			if x, e = scanI64(data, i); e < 0 || e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
				return i, col, false
			}
			vecs[op.field].AppendI64(x)
			if op.op == opLazyI64 {
				b.walkConverted(op.lazy)
			}
		default:
			return i, col, false
		}
		col++
		if e == len(data) || int(data[e]) != dl {
			return e, col, true
		}
		i = e + 1
	}
	return i, len(ops), false
}

// inPlace appends the number at line[i] to v, an f64 vector if f64 and
// an i64 one otherwise, when its digits run to a delimiter or the line's
// end, and returns that end; -1, with nothing appended, for any other
// cell.
func inPlace(line []byte, i int, f64 bool, v *colvec.Vec, delim byte) int {
	if f64 {
		x, e := scanDecimal(line, i)
		if e == len(line) || e >= 0 && line[e] == delim {
			v.AppendF64(x)
			return e
		}
		return -1
	}
	x, e := scanWordI64(line, i)
	if e == len(line) || e >= 0 && line[e] == delim {
		v.AppendI64(x)
		return e
	}
	return -1
}

// scanWordI64 is scanI64 over bytes that reads a run of 1 to 7 unsigned
// digits from one 8-byte word (plainWord, wordDigits) instead of a digit
// at a time.
func scanWordI64(s []byte, i int) (int64, int) {
	if w, k := plainWord(s, i); k > 0 {
		return int64(wordDigits(w, k)), i + k
	}
	return scanI64(s, i)
}

// plainCell is the plain shape of lazy column op's cells at s[i]
// (plainDecimal or plainI64).
func plainCell(op colOp, s []byte, i int) int {
	if op.op == opLazyF64 {
		return plainDecimal(s, i)
	}
	return plainI64(s, i)
}

// plainI64 is scanI64's shape over s[i:] without its arithmetic:
// [sign]digits of at most 18 digits, which scanI64 reads to the same end
// and never out of int64. It returns that end, or -1 for any other
// spelling (scanI64 decides those).
func plainI64(s []byte, i int) int {
	if _, n := plainWord(s, i); n > 0 {
		return i + n
	}
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	e := i
	for e < len(s) && s[e]-'0' <= 9 {
		e++
	}
	if e == i || e-i > 18 {
		return -1
	}
	return e
}

// plainWord reads the unsigned digit run at s[i] a word at a time: it
// returns the 8 bytes there and the run's length when that is 1 to 7
// digits, and n = 0 for anything else (a sign, no digit, 8 digits or
// more, fewer than 8 bytes left).
func plainWord(s []byte, i int) (w uint64, n int) {
	if i+8 <= len(s) {
		w = binary.LittleEndian.Uint64(s[i:])
		if m := nonDigits(w); m != 0 && m&0x80 == 0 {
			return w, bits.TrailingZeros64(m) >> 3
		}
	}
	return 0, 0
}

// wordDigits is the value of the n-digit run (1 ≤ n ≤ 7) that opens the
// word w (little-endian, the first digit lowest): the run's digits moved
// to the top of the word behind leading zeros, then summed pairwise as
// 8 digits in three multiplies (Lemire's eight-digit parse).
func wordDigits(w uint64, n int) uint64 {
	w = (w & 0x0F0F0F0F0F0F0F0F) << (8 * (8 - n))
	w = w * (10<<8 + 1) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (w & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// plainDecimal is scanDecimal's shape over s[i:] without its arithmetic:
// [sign]digits[.digits] of at most 15 digits in all, which scanDecimal
// reads to the same end and always on its exact path (the mantissa is
// below 2^53). It returns that end, or -1 for any other spelling.
func plainDecimal(s []byte, i int) int {
	if i+16 <= len(s) {
		// An unsigned cell of at most 15 bytes whose integer digits fit
		// the first 8 is read in one step, from both words at once: the
		// end is the first non-digit, or the one after a '.' that follows
		// a digit.
		x := binary.LittleEndian.Uint64(s[i:])
		lo := nonDigits(x)
		if p := bits.TrailingZeros64(lo) >> 3; lo != 0 && p > 0 {
			if byte(x>>(8*p)) != '.' {
				return i + p
			}
			q := -1 // the non-digit after the '.'
			if rest := lo & (lo - 1); rest != 0 {
				q = bits.TrailingZeros64(rest) >> 3
			} else if hi := nonDigits(binary.LittleEndian.Uint64(s[i+8:])); hi != 0 {
				q = 8 + bits.TrailingZeros64(hi)>>3
			}
			switch {
			case q > p+1:
				return i + q
			case q >= 0:
				return -1 // "1." and "1.x" have no fraction digits
			}
		}
	}
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	e := i
	for e < len(s) && s[e]-'0' <= 9 {
		e++
	}
	digits := e - i
	if digits == 0 {
		return -1
	}
	if e < len(s) && s[e] == '.' {
		f := e + 1
		for e = f; e < len(s) && s[e]-'0' <= 9; e++ {
		}
		if e == f {
			return -1
		}
		digits += e - f
	}
	if digits > 15 {
		return -1
	}
	return e
}

// nonDigits flags the bytes of x (little-endian, the first byte lowest)
// that are not ASCII digits, each by its high bit: t = b^'0' is below 10
// exactly for a digit, and (t&0x7F)+0x76 sets the high bit from 10 up
// without carrying into the next byte.
func nonDigits(x uint64) uint64 {
	const low7, zeros, over9 = 0x7F7F7F7F7F7F7F7F, 0x3030303030303030, 0x7676767676767676
	t := x ^ zeros
	return ((t & low7) + over9 | t) &^ low7
}

// endsRecord reports whether data[i] ends the record's body: a '\n', or
// a '\r' that starts a CRLF or is the chunk's last byte.
func endsRecord(data []byte, i int) bool {
	c := data[i]
	return c == '\n' || c == '\r' && (i+1 == len(data) || data[i+1] == '\n')
}

// quotedCell scans the quoted cell opening at line[i] as ParseLineVecs
// does: body lies between the quotes (escaped reports a doubled "" in
// it) and next is the delimiter or end after any trailing garbage. ok is
// false when the quote does not close.
func quotedCell(line []byte, i int, delim byte) (body []byte, escaped bool, next int, ok bool) {
	start := i + 1
	for i = start; ; i += 2 {
		j := bytes.IndexByte(line[i:], '"')
		if j < 0 {
			return nil, false, 0, false
		}
		i += j
		if i+1 >= len(line) || line[i+1] != '"' {
			break
		}
		escaped = true
	}
	body = line[start:i]
	for i++; i < len(line) && line[i] != delim; i++ {
	}
	return body, escaped, i, true
}
