package csvio

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// generalSpec draws a general-case spec for a record of nCells cells: a
// column count that usually matches it, and a random projection typed
// from the general schema's vocabulary (a kind, its Option, or Null).
func generalSpec(seed uint64, delim byte, nCells int) *ParseSpec {
	r := rand.New(rand.NewPCG(seed, seed^0x51ed2701))
	nulls := [][]string{nil, {""}, {"", "n/a", "N/A"}, {"NA"}, {"0", ""}}
	kinds := []types.Type{types.I64, types.F64, types.Str, types.Bool, types.Null}
	numCols := nCells
	if r.IntN(4) == 0 {
		numCols = 1 + r.IntN(6)
	}
	var fields []FieldSpec
	for c := range numCols {
		if r.IntN(10) < 7 {
			t := kinds[r.IntN(len(kinds))]
			if t.Kind() != types.KindNull && r.IntN(2) == 0 {
				t = types.Option(t)
			}
			fields = append(fields, FieldSpec{Col: c, Type: t})
		}
	}
	return NewGeneralParseSpec(delim, numCols, fields, nulls[r.IntN(len(nulls))])
}

// generalConforms reports whether GeneralParse's value v is of the
// general type t: t's kind, or None where t is an Option or Null.
func generalConforms(v pyvalue.Value, t types.Type) bool {
	k, nullable := colvec.PayloadKind(t)
	switch v.(type) {
	case pyvalue.None:
		return nullable || k == types.KindNull
	case pyvalue.Bool:
		return k == types.KindBool
	case pyvalue.Int:
		return k == types.KindI64
	case pyvalue.Float:
		return k == types.KindF64
	case pyvalue.Str:
		return k == types.KindStr
	}
	return false
}

// checkGeneralParse holds the general spec to GeneralParse on one
// record: ParseLineVecs and ParseChunk accept it exactly when it has the
// spec's column count and every projected value conforms to its field's
// type, and then the vectors hold those values — same kind, same value
// (float bits), None for null spellings.
func checkGeneralParse(t *testing.T, spec *ParseSpec, rec []byte) {
	t.Helper()
	vals := GeneralParse(rec, spec.Delim, spec.NullValues)
	projected := GeneralFields(rec, spec.Delim, spec.Fields, spec.NullValues)
	for fi, f := range spec.Fields {
		var v pyvalue.Value = pyvalue.None{}
		if f.Col < len(vals) {
			v = vals[f.Col]
		}
		if !sameGeneralValue(projected[fi], v) {
			t.Fatalf("record %q field %d (col %d): GeneralFields %#v, GeneralParse %#v", rec, fi, f.Col, projected[fi], v)
		}
	}
	want := len(vals) == spec.NumCols
	for _, f := range spec.Fields {
		if want && !generalConforms(vals[f.Col], f.Type) {
			want = false
		}
	}
	vecs := spec.NewVecsFor()
	ec := spec.ParseLineVecs(rec, vecs)
	if (ec == 0) != want {
		t.Fatalf("record %q, spec %d cols %v nulls %q: accepted=%v, GeneralParse %v says %v",
			rec, spec.NumCols, spec.Fields, spec.NullValues, ec == 0, vals, want)
	}
	for fi, f := range spec.Fields {
		v := vecs[fi]
		if !want {
			if v.Len() != 0 {
				t.Fatalf("record %q rejected but field %d kept %d cells", rec, fi, v.Len())
			}
			continue
		}
		if v.Len() != 1 {
			t.Fatalf("record %q: field %d holds %d cells", rec, fi, v.Len())
		}
		got := v.Slot(0).Value()
		if !sameGeneralValue(got, vals[f.Col]) {
			t.Fatalf("record %q field %d (%s): vector holds %#v, GeneralParse %#v", rec, fi, f.Type, got, vals[f.Col])
		}
	}
	// ParseChunk reads a lone record the same way when neither a line
	// break nor an open quote can make its record boundary another one.
	if bytes.ContainsAny(rec, "\r\n\"") {
		return
	}
	var b ChunkBatch
	cvecs := spec.NewVecsFor()
	spec.ParseChunk(append(rec[:len(rec):len(rec)], '\n'), 0, 1, cvecs, &b)
	if (len(b.Rejects) == 0) != want {
		t.Fatalf("record %q: ParseChunk accepted=%v, ParseLineVecs %v", rec, len(b.Rejects) == 0, want)
	}
	for fi := range cvecs {
		if cvecs[fi].Len() != vecs[fi].Len() || (want && !sameGeneralValue(cvecs[fi].Slot(0).Value(), vecs[fi].Slot(0).Value())) {
			t.Fatalf("record %q field %d: ParseChunk and ParseLineVecs disagree", rec, fi)
		}
	}
}

func sameGeneralValue(a, b pyvalue.Value) bool {
	switch a := a.(type) {
	case pyvalue.Float:
		bf, ok := b.(pyvalue.Float)
		return ok && math.Float64bits(float64(a)) == math.Float64bits(float64(bf))
	case pyvalue.None, pyvalue.Bool, pyvalue.Int, pyvalue.Str:
		return a == b
	}
	return false
}

// generalSeeds are records the general case meets: flights-shaped
// rejects (empty cells in float columns, values in columns sampled
// all-null), and the spellings whose SniffValue kind is not the column's
// — "5" in a float column, "0"/"1" in a bool column, numbers in a string
// column — plus quoting and ragged rows.
var generalSeeds = []string{
	"2019,1,AA,1045,,,,1,A,0.00,,",
	"2019,1,DL,1830,1829.00,-1.00,2.00,0,,1,1.00,245.00",
	"5,5.0,true,abc", "0,1,True,123", "1,0.5,false,12.5",
	"1e5,2E-3,inf,nan", `"5","",x,"12"`, `"es""caped",1,"q"garbage,2`,
	`"unterminated,1,2`, "a,b", "a,b,c,d,e", "", ",,,", "n/a,N/A,NA,-1",
	"9223372036854775808,-9223372036854775809,007,+3",
}

func FuzzGeneralParse(f *testing.F) {
	for i, s := range generalSeeds {
		f.Add([]byte(s), uint64(i))
	}
	f.Fuzz(func(t *testing.T, rec []byte, seed uint64) {
		delim := []byte{',', ',', ';', '\t'}[seed%4]
		spec := generalSpec(seed, delim, len(SplitCells(rec, delim, nil)))
		checkGeneralParse(t, spec, rec)
	})
}

// TestGeneralParseKinds pins the spellings the general spec turns away
// because the fallback would see another kind in them.
func TestGeneralParseKinds(t *testing.T) {
	cases := []struct {
		cell string
		t    types.Type
		ok   bool
	}{
		{"5.0", types.F64, true}, {"5", types.F64, false}, {"", types.F64, false},
		{"", types.Option(types.F64), true}, {"1e3", types.Option(types.F64), true},
		{"true", types.Bool, true}, {"0", types.Bool, false}, {"1", types.Bool, false},
		{"0", types.I64, true}, {"True", types.I64, false}, {"12", types.I64, true},
		{"abc", types.Str, true}, {"123", types.Str, false}, {"1.5", types.Option(types.Str), false},
		{"", types.Null, true}, {"7", types.Null, false}, {`""`, types.Option(types.I64), true},
	}
	for _, c := range cases {
		spec := NewGeneralParseSpec(',', 2, []FieldSpec{{Col: 1, Type: c.t}}, nil)
		rec := []byte("x," + c.cell)
		if ok := spec.ParseLineVecs(rec, spec.NewVecsFor()) == 0; ok != c.ok {
			t.Errorf("%q in a %s column: accepted=%v, want %v", c.cell, c.t, ok, c.ok)
		}
		checkGeneralParse(t, spec, rec)
	}
}

// TestGeneralParseRandom runs the fuzz property over records drawn from
// the chunk parser's cell vocabulary.
func TestGeneralParseRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	for i := range 20000 {
		n := 1 + r.IntN(6)
		var rec []byte
		for c := range n {
			if c > 0 {
				rec = append(rec, ',')
			}
			rec = append(rec, chunkCells[r.IntN(len(chunkCells))]...)
		}
		checkGeneralParse(t, generalSpec(uint64(i), ',', len(SplitCells(rec, ',', nil))), rec)
	}
}

// sniffReference is SniffValue as the parsers define it, without
// sniff's first-byte shortcut.
func sniffReference(cell string, nullValues []string) pyvalue.Value {
	for _, nv := range nullValues {
		if cell == nv {
			return pyvalue.None{}
		}
	}
	if b, ok := ParseBool(cell); ok {
		switch cell {
		case "0":
			return pyvalue.Int(0)
		case "1":
			return pyvalue.Int(1)
		}
		return pyvalue.Bool(b)
	}
	if v, ok := ParseI64(cell); ok {
		return pyvalue.Int(v)
	}
	if f, ok := ParseF64(cell); ok && strings.ContainsAny(cell, ".eE") {
		return pyvalue.Float(f)
	}
	return pyvalue.Str(cell)
}

func FuzzSniffValue(f *testing.F) {
	for _, c := range append(chunkCells, "Inf", "+inf", "-Infinity", "NaN", "0x1p-2", "0x1.8p1", "1_000.5", "TRUE", "fAlSe", "t", ".", "+.5e3", "\t1") {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, cell string) {
		for _, nulls := range [][]string{nil, {""}, {"NA", "0"}} {
			got, want := SniffValue(cell, nulls), sniffReference(cell, nulls)
			if !sameGeneralValue(got, want) {
				t.Fatalf("SniffValue(%q, %q) = %#v, want %#v", cell, nulls, got, want)
			}
		}
	})
}

// splitCellsReference is SplitCells as it was before splitCell took its
// cell loop, kept verbatim as the reference.
func splitCellsReference(line []byte, delim byte) []string {
	var cells []string
	i := 0
	n := len(line)
	for {
		if i >= n {
			cells = append(cells, "")
			return cells
		}
		if line[i] == '"' {
			// Quoted cell.
			var sb strings.Builder
			i++
			for i < n {
				c := line[i]
				if c == '"' {
					if i+1 < n && line[i+1] == '"' {
						sb.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(c)
				i++
			}
			cells = append(cells, sb.String())
			if i < n && line[i] == delim {
				i++
				continue
			}
			if i >= n {
				return cells
			}
			// Garbage after closing quote: take it verbatim to the next
			// delimiter (dirty data stays data, not an error).
			start := i
			for i < n && line[i] != delim {
				i++
			}
			cells[len(cells)-1] += string(line[start:i])
			if i < n {
				i++
				continue
			}
			return cells
		}
		start := i
		for i < n && line[i] != delim {
			i++
		}
		cells = append(cells, string(line[start:i]))
		if i < n {
			i++ // skip delimiter
			continue
		}
		return cells
	}
}

func FuzzSplitCells(f *testing.F) {
	for _, s := range append(generalSeeds, `"a""b"c,d`, `x,"`, `","`, `""""`, `a,`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		got, want := SplitCells(rec, ',', nil), splitCellsReference(rec, ',')
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitCells(%q) = %q, want %q", rec, got, want)
		}
	})
}
