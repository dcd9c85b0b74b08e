package csvio

import (
	"bytes"
	"strings"
	"unsafe"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// ParseLineVecs runs the generated parser on one record, appending each
// projected cell directly onto its column vector — the columnar twin of
// ParseLine (one append per cell, zero per-cell boxing). vecs[i] receives
// p.Fields[i]; all vectors must be the same length on entry. On any
// mismatch the vectors are rolled back to their entry length and the
// record's ExcBadParse routes the raw line to the exception pool, exactly
// like the row path. The scan logic must mirror ParseLine byte for byte —
// the csvio equivalence tests enforce this.
//
//tuplex:kernel
func (p *ParseSpec) ParseLineVecs(line []byte, vecs []*colvec.Vec) pyvalue.ExcKind {
	if p.general {
		return p.parseGeneral(line, vecs)
	}
	n0 := 0
	if len(vecs) > 0 {
		n0 = vecs[0].Len()
	}
	n := len(line)
	i := 0
	col := 0
	fi := 0
	for {
		wanted := fi < len(p.Fields) && p.Fields[fi].Col == col
		var raw []byte
		var cell string
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
			if ec := p.appendCell(raw, cell, quoted, p.Fields[fi].Type, vecs[fi]); ec != 0 {
				rollbackVecs(vecs, n0)
				return ec
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
		rollbackVecs(vecs, n0)
		return pyvalue.ExcBadParse
	}
	return 0
}

// parseGeneral is the general spec's reading of a record (see
// NewGeneralParseSpec): the cells of SplitCells, each projected one
// appended as the value SniffValue boxes it as, or the record rejected.
func (p *ParseSpec) parseGeneral(line []byte, vecs []*colvec.Vec) pyvalue.ExcKind {
	n0 := 0
	if len(vecs) > 0 {
		n0 = vecs[0].Len()
	}
	col, fi := 0, 0
	for i := 0; ; col++ {
		text, next, last := splitCell(line, i, p.Delim)
		if fi < len(p.Fields) && p.Fields[fi].Col == col {
			if !p.appendGeneral(text, p.kinds[fi], vecs[fi]) {
				rollbackVecs(vecs, n0)
				return pyvalue.ExcBadParse
			}
			fi++
		}
		if last {
			break
		}
		i = next
	}
	if col+1 != p.NumCols || fi != len(p.Fields) {
		rollbackVecs(vecs, n0)
		return pyvalue.ExcBadParse
	}
	return 0
}

// appendGeneral appends the cell's SniffValue reading onto v if it is of
// the field's type: its kind, or None where the type is an Option or Null.
// Int and float fields read their common spellings without sniff: sniff
// takes exactly the strict integer spellings for ints, and a decimal
// spelling with a '.' for a float.
func (p *ParseSpec) appendGeneral(text []byte, f fieldKind, v *colvec.Vec) bool {
	k := f.kind
	switch {
	case p.isNullBytes(text, ""):
		switch {
		case k == types.KindNull:
			v.AppendUnit()
		case f.nullable:
			v.AppendNull()
		default:
			return false
		}
		return true
	case k == types.KindI64:
		x, ok := parseI64(text)
		if ok {
			v.AppendI64(x)
		}
		return ok
	case k == types.KindF64:
		if x, ok := parseDecimal(text); ok {
			if bytes.IndexByte(text, '.') < 0 {
				return false // an int, or past int64 a string
			}
			v.AppendF64(x)
			return true
		}
	}
	// The view lives only for this call: sniff keeps no part of it.
	c := sniff(unsafe.String(unsafe.SliceData(text), len(text)), p.NullValues)
	switch {
	case c.kind != k:
		return false
	case k == types.KindBool:
		v.AppendBool(c.b)
	case k == types.KindF64:
		v.AppendF64(c.f)
	case k == types.KindStr:
		v.AppendStrBytes(text)
	default:
		return false
	}
	return true
}

func rollbackVecs(vecs []*colvec.Vec, n int) {
	for _, v := range vecs {
		v.Truncate(n)
	}
}

// appendCell is parseCellBytes appending onto a vector instead of a slot.
func (p *ParseSpec) appendCell(raw []byte, cell string, quoted bool, t types.Type, v *colvec.Vec) pyvalue.ExcKind {
	switch t.Kind() {
	case types.KindOption:
		if !quoted && p.isNullBytes(raw, cell) {
			v.AppendNull()
			return 0
		}
		return p.appendCell(raw, cell, quoted, t.Elem(), v)
	case types.KindNull:
		if !quoted && p.isNullBytes(raw, cell) {
			v.AppendUnit()
			return 0
		}
		return pyvalue.ExcBadParse
	case types.KindStr:
		if raw != nil {
			v.AppendStrBytes(raw)
		} else {
			v.AppendStr(cell)
		}
		return 0
	case types.KindI64:
		x, ok := ParseI64Bytes(raw, cell)
		if !ok {
			return pyvalue.ExcBadParse
		}
		v.AppendI64(x)
		return 0
	case types.KindF64:
		var x float64
		var ok bool
		if raw != nil {
			x, ok = ParseF64Bytes(raw)
		} else {
			x, ok = ParseF64(cell)
		}
		if !ok {
			return pyvalue.ExcBadParse
		}
		v.AppendF64(x)
		return 0
	case types.KindBool:
		s := cell
		if raw != nil {
			s = string(raw) // bool cells are tiny; alloc is fine
		}
		x, ok := ParseBool(s)
		if !ok {
			return pyvalue.ExcBadParse
		}
		v.AppendBool(x)
		return 0
	default:
		return pyvalue.ExcBadParse
	}
}

// NewVecsFor allocates one vector per projected field of the spec.
func (p *ParseSpec) NewVecsFor() []*colvec.Vec {
	vecs := make([]*colvec.Vec, len(p.Fields))
	for i, f := range p.Fields {
		vecs[i] = colvec.NewVec(f.Type)
	}
	return vecs
}
