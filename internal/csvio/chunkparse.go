package csvio

import (
	"bytes"
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
	// opI64 / opF64 parse the cell in place with scanI64 / scanDecimal.
	opI64
	opF64
	// opStr appends the cell's bytes (after the null test if nullable).
	opStr
	// opCell hands every cell to appendCell: bool and null-typed
	// columns, and numeric columns one of whose null spellings the
	// in-place loop would read as a number.
	opCell
)

// colOp is the op table entry of one CSV column; field indexes p.Fields
// and the vectors.
type colOp struct {
	op       cellOp
	nullable bool
	field    int32
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
		p.ops[f.Col] = colOp{op: op, nullable: nullable, field: int32(fi)}
	}
}

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

	// qf is where the last search for a '"' stopped: the chunk holds no
	// '"' between the current record's start and qf (see bound).
	qf int
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
//
// Record boundaries, raw bytes, values and rejects are therefore those of
// SplitRecords + ParseLineVecs; FuzzParseChunk holds the two to it.
//
//tuplex:kernel
func (p *ParseSpec) ParseChunk(data []byte, pos, limit int, vecs []*colvec.Vec, b *ChunkBatch) int {
	raws, recs, n := b.Raws[:0], 0, len(data)
	b.Rejects, b.Slow, b.qf = b.Rejects[:0], 0, pos
	for ; recs < limit; recs++ {
		if rest := n - pos; rest == 0 || rest == 1 && data[pos] == '\r' {
			pos = n // an empty final record, which SplitRecords drops
			break
		}
		end, next, ec := p.parseLine(data, pos, vecs, b)
		if ec != 0 {
			b.Rejects = append(b.Rejects, Reject{Rec: recs, Raw: data[pos:end], EC: ec})
		} else {
			raws = append(raws, data[pos:end])
		}
		pos = next
	}
	b.Raws, b.Records = raws, recs
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

// parseLine parses the record starting at data[pos] into vecs and
// returns the end of its body (a CRLF's CR trimmed) and the start of the
// next record. It is the only walk over the record. Its first leg
// (numbers) reads in-place numbers straight off the chunk; when the
// terminator that stops the last of them ends the record, the record was
// read once. Otherwise, at the first cell that needs the record's end —
// a string, skipped, quoted or appendCell cell, or a number followed by
// anything but a delimiter or a terminator — bound finds it, and cells
// walks on within it. A record handed to ParseLineVecs counts in b.Slow;
// a rejected record leaves the vectors as it found them.
//
//tuplex:kernel
func (p *ParseSpec) parseLine(data []byte, pos int, vecs []*colvec.Vec, b *ChunkBatch) (end, next int, ec pyvalue.ExcKind) {
	n0 := 0
	if len(vecs) > 0 {
		n0 = vecs[0].Len()
	}
	i, col := pos, 0
	if !p.general && len(p.ops) > 0 && (p.ops[0].op == opI64 || p.ops[0].op == opF64) {
		var ended bool
		if i, col, ended = p.numbers(data, pos, vecs); ended {
			end, next = i, min(i+1, len(data))
			if i < len(data) && data[i] == '\r' {
				next = min(i+2, len(data))
			}
			if col != p.NumCols || col <= p.maxCol {
				rollbackVecs(vecs, n0)
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
	ec, slow := p.cells(line, i-pos, col, nq, n0, vecs)
	if slow {
		b.Slow++
	}
	return end, next, ec
}

// cells walks the rest of the record line, holding nq '"', from the
// cell at line[i], column col; the vectors held n0 rows when the record
// began. slow reports the record went to ParseLineVecs.
//
//tuplex:kernel
func (p *ParseSpec) cells(line []byte, i, col, nq, n0 int, vecs []*colvec.Vec) (ec pyvalue.ExcKind, slow bool) {
	ops, delim, n := p.ops, p.Delim, len(line)
	quotes := 0
	for {
		var op colOp // opSkip past the last projected column
		if col < len(ops) {
			op = ops[col]
		}
		// In place: a number whose digits run to the cell's end.
		done := false
		switch op.op {
		case opI64:
			if x, e := scanI64(line, i); e == n || e >= 0 && line[e] == delim {
				vecs[op.field].AppendI64(x)
				i, done = e, true
			}
		case opF64:
			if x, e := scanDecimal(line, i); e == n || e >= 0 && line[e] == delim {
				vecs[op.field].AppendF64(x)
				i, done = e, true
			}
		}
		switch {
		case done:
		case i < n && line[i] == '"':
			body, escaped, next, ok := quotedCell(line, i, delim)
			if !ok {
				rollbackVecs(vecs, n0)
				return p.ParseLineVecs(line, vecs), true
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
			}
		}
		if ec != 0 {
			rollbackVecs(vecs, n0)
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
		rollbackVecs(vecs, n0)
		return p.ParseLineVecs(line, vecs), true
	case col != p.NumCols || col <= p.maxCol:
		rollbackVecs(vecs, n0)
		return pyvalue.ExcBadParse, false
	}
	return 0, false
}

// numbers is parseLine's first leg: from the record's start data[i] it
// appends in-place numbers, cell after cell, while each one's digits run
// to a delimiter, and returns the offset and column of the first cell
// that is not one — or, with ended, the offset of the record terminator
// (or the chunk's end) that stopped the last. It reads no '"' or
// newline as a delimiter: with such a delimiter it reads one cell at
// most. Kept apart from parseLine's other cases, its loop runs in
// registers.
func (p *ParseSpec) numbers(data []byte, i int, vecs []*colvec.Vec) (int, int, bool) {
	ops, dl := p.ops, int(p.Delim)
	if p.Delim == '"' || p.Delim == '\n' || p.Delim == '\r' {
		dl = -1
	}
	for col := 0; col < len(ops); {
		op := ops[col]
		var e int
		switch op.op {
		case opI64:
			var x int64
			if x, e = scanI64(data, i); e < 0 || e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
				return i, col, false
			}
			vecs[op.field].AppendI64(x)
		case opF64:
			var x float64
			if x, e = scanDecimal(data, i); e < 0 || e < len(data) && int(data[e]) != dl && !endsRecord(data, e) {
				return i, col, false
			}
			vecs[op.field].AppendF64(x)
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
