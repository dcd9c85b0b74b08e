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
// then ParseLineVecs on each record, fused:
//
//   - A record ends at the next newline when no '"' comes before it,
//     which one vectorized IndexByte finds (quotes are searched a window
//     ahead, so quote-free data pays no per-record search); otherwise
//     SplitRecords' quote-parity scan (nextTerminator) cuts it.
//   - The cells are walked as ParseLineVecs walks them, but the spec's op
//     table decides per column: unprojected cells are scanned past,
//     string cells append their bytes, and int and float cells parse in
//     place — the digit loop of scanI64 / scanDecimal stops at the byte
//     that must end the cell, so no separate delimiter scan runs. Every
//     cell off those paths (a quoted cell, a null spelling, an exponent,
//     too many digits) goes through appendCell on its exact bytes.
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
	b.Raws, b.Rejects, b.Records, b.Slow = b.Raws[:0], b.Rejects[:0], 0, 0
	n := len(data)
	// data[pos:qf] holds no '"'; qf is n, a '"', or the end of the last
	// window searched.
	qf := pos
	for ; b.Records < limit; b.Records++ {
		if rest := n - pos; rest == 0 || rest == 1 && data[pos] == '\r' {
			return n // an empty final record, which SplitRecords drops
		}
		nl := n
		if j := bytes.IndexByte(data[pos:], '\n'); j >= 0 {
			nl = pos + j
		}
		qf = max(qf, pos)
		for qf < nl && data[qf] != '"' {
			w := data[qf:min(n, qf+quoteWindow)]
			if j := bytes.IndexByte(w, '"'); j >= 0 {
				qf += j
			} else {
				qf += len(w)
			}
		}
		nq := 0
		if qf < nl {
			if nl, nq = nextTerminator(data, pos, true); nl < 0 {
				nl = n
			}
		}
		end := nl
		if end > pos && data[end-1] == '\r' {
			end--
		}
		ec, slow := p.parseLine(data[pos:end], nq, vecs)
		if slow {
			b.Slow++
		}
		if ec != 0 {
			b.Rejects = append(b.Rejects, Reject{Rec: b.Records, Raw: data[pos:end], EC: ec})
		} else {
			b.Raws = append(b.Raws, data[pos:end])
		}
		pos = min(nl+1, n)
	}
	return pos
}

// quoteWindow bounds one search for the next '"', so a batch's searches
// cover about the bytes it parses, not the rest of the chunk.
const quoteWindow = 4 << 10

// parseLine parses one record holding nq '"' into vecs; slow reports it
// went to ParseLineVecs. A rejected record leaves the vectors as it found
// them.
//
//tuplex:kernel
func (p *ParseSpec) parseLine(line []byte, nq int, vecs []*colvec.Vec) (ec pyvalue.ExcKind, slow bool) {
	if p.general {
		return p.parseGeneral(line, vecs), false
	}
	n0 := 0
	if len(vecs) > 0 {
		n0 = vecs[0].Len()
	}
	ops, delim, n := p.ops, p.Delim, len(line)
	i, col, quotes := 0, 0, 0
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
			for i < n && line[i] != delim {
				i++
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
