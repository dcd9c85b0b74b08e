package csvio

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/types"
)

// checkParseChunk runs data through ParseChunk in batches of cut records
// and, batch by batch, through SplitRecords + ParseLineVecs, and requires
// the same record count, accepted raw records, rejects (index, bytes,
// code) and vectors (length, null bits, payload bits).
func checkParseChunk(t *testing.T, spec *ParseSpec, data []byte, cut int) {
	t.Helper()
	recs := SplitRecords(data)
	want, got := spec.NewVecsFor(), spec.NewVecsFor()
	var b ChunkBatch
	pos := 0
	for start := 0; ; start += cut {
		for i := range want {
			want[i].Reset()
			got[i].Reset()
		}
		end := min(start+cut, len(recs))
		var wantRaws [][]byte
		var wantRej []Reject
		for i, rec := range recs[start:end] {
			if ec := spec.ParseLineVecs(rec, want); ec != 0 {
				wantRej = append(wantRej, Reject{Rec: i, Raw: rec, EC: ec})
			} else {
				wantRaws = append(wantRaws, rec)
			}
		}
		next := spec.ParseChunk(data, pos, cut, got, &b)
		if b.Records != end-start {
			t.Fatalf("%q (cut %d) batch at record %d: %d records, SplitRecords has %d", data, cut, start, b.Records, end-start)
		}
		if len(b.Raws) != len(wantRaws) {
			t.Fatalf("%q (cut %d) batch at record %d: accepted %q, want %q", data, cut, start, b.Raws, wantRaws)
		}
		for i := range wantRaws {
			if !bytes.Equal(b.Raws[i], wantRaws[i]) {
				t.Fatalf("%q (cut %d): accepted record %d = %q, want %q", data, cut, start+i, b.Raws[i], wantRaws[i])
			}
		}
		if len(b.Rejects) != len(wantRej) {
			t.Fatalf("%q (cut %d) batch at record %d: rejects %v, want %v", data, cut, start, b.Rejects, wantRej)
		}
		for i, w := range wantRej {
			if g := b.Rejects[i]; g.Rec != w.Rec || g.EC != w.EC || !bytes.Equal(g.Raw, w.Raw) {
				t.Fatalf("%q (cut %d) batch at record %d: reject %d = {%d %q %v}, want {%d %q %v}",
					data, cut, start, i, g.Rec, g.Raw, g.EC, w.Rec, w.Raw, w.EC)
			}
		}
		sameVecs(t, got, want)
		if next == len(data) {
			if end != len(recs) {
				t.Fatalf("%q (cut %d): chunk done after %d records, SplitRecords has %d", data, cut, end, len(recs))
			}
			return
		}
		if next <= pos {
			t.Fatalf("%q (cut %d): ParseChunk made no progress at %d", data, cut, pos)
		}
		pos = next
	}
}

func sameVecs(t *testing.T, got, want []*colvec.Vec) {
	t.Helper()
	for c := range want {
		g, w := got[c], want[c]
		if g.Len() != w.Len() || g.Kind != w.Kind || g.Nullable != w.Nullable {
			t.Fatalf("column %d: len/kind/nullable %d/%v/%v, want %d/%v/%v", c, g.Len(), g.Kind, g.Nullable, w.Len(), w.Kind, w.Nullable)
		}
		for r := 0; r < w.Len(); r++ {
			if g.IsNull(r) != w.IsNull(r) {
				t.Fatalf("column %d row %d: null %v, want %v", c, r, g.IsNull(r), w.IsNull(r))
			}
			if w.IsNull(r) {
				continue
			}
			var ok bool
			switch w.Kind {
			case types.KindI64:
				ok = g.I[r] == w.I[r]
			case types.KindF64:
				ok = math.Float64bits(g.F[r]) == math.Float64bits(w.F[r])
			case types.KindBool:
				ok = g.B[r] == w.B[r]
			case types.KindStr:
				ok = bytes.Equal(g.RawStr(r), w.RawStr(r))
			default:
				ok = true
			}
			if !ok {
				t.Fatalf("column %d row %d: %v, want %v", c, r, g.Slot(r), w.Slot(r))
			}
		}
	}
}

// randSpec derives a parse spec from seed: 1–6 columns, a random subset
// projected with Option/Null/Str/I64/F64/Bool types, a delimiter (now
// and then one that collides with the record syntax) and null spellings,
// some of which read as numbers. About a third of the specs project
// every column as an int or a float: the shape whose records the walk
// ends without searching for their terminator.
func randSpec(seed uint64) *ParseSpec {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	delims := []byte{',', ',', ',', ';', '\t', '|', ':', '\r', '"', '\n'}
	nulls := [][]string{nil, {""}, {"", "n/a", "N/A"}, {"NA"}, {"0", ""}, {"-1"}, {"1.5", "n/a"}}
	kinds := []types.Type{types.I64, types.F64, types.Str, types.Bool, types.Null}
	numeric := r.IntN(3) == 0
	if numeric {
		kinds = kinds[:2]
	}
	numCols := 1 + r.IntN(6)
	var fields []FieldSpec
	for c := range numCols {
		if numeric || r.IntN(10) < 6 {
			t := kinds[r.IntN(len(kinds))]
			if r.IntN(2) == 0 {
				t = types.Option(t)
			}
			fields = append(fields, FieldSpec{Col: c, Type: t})
		}
	}
	return NewParseSpec(delims[r.IntN(len(delims))], numCols, fields, nulls[r.IntN(len(nulls))])
}

// chunkCells are the cell spellings the generated chunks draw from: the
// in-place paths' edges and everything that must leave them.
var chunkCells = []string{
	"", "0", "7", "42", "-7", "+3", "007", "-", "+", "1a", " 1", "12\r",
	"999999999999999999", "-999999999999999999", "1000000000000000000", "9223372036854775807",
	"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "18446744073709551616",
	"1.5", "-0.25", "0.06", "43503.12", "1.", ".5", "1e5", "2E-3", "9007199254740993.5",
	"12345678901234567890.5", "1234567890123456789", "0.1234567890123456789012", "inf", "nan",
	"true", "False", "1", "abc", "n/a", "N/A", "NA", "-1",
	`"quoted"`, `"es""caped"`, `"multi` + "\n" + `line"`, `"crlf` + "\r\n" + `inside"`, `"12"`, `""`, `""""`,
	`"q"garbage`, `"q"gar"bage`, `ab"c`, `"unterminated`, `x"`, `"a,b"`,
}

// randChunk builds a chunk of records over spec's delimiter (or a comma)
// from chunkCells, with LF and CRLF terminators, empty lines and an
// optionally unterminated final record.
func randChunk(r *rand.Rand, spec *ParseSpec) []byte {
	var sb strings.Builder
	delim := spec.Delim
	if r.IntN(8) == 0 {
		delim = ','
	}
	for range r.IntN(12) {
		switch r.IntN(10) {
		case 0:
			sb.WriteString("\n")
			continue
		case 1:
			sb.WriteString("\r\n")
			continue
		}
		cols := spec.NumCols
		if r.IntN(6) == 0 {
			cols = 1 + r.IntN(spec.NumCols+2)
		}
		for c := range cols {
			if c > 0 {
				sb.WriteByte(delim)
			}
			cell := chunkCells[r.IntN(len(chunkCells))]
			if r.IntN(4) != 0 {
				// Mostly cells of the column's own kind.
				cell = chunkCells[r.IntN(20)]
			}
			sb.WriteString(cell)
		}
		switch r.IntN(4) {
		case 0:
			sb.WriteString("\r\n")
		default:
			sb.WriteString("\n")
		}
	}
	s := sb.String()
	if r.IntN(3) == 0 {
		s = strings.TrimSuffix(strings.TrimSuffix(s, "\n"), "\r")
	}
	if r.IntN(10) == 0 {
		s += "\r"
	}
	return []byte(s)
}

func TestParseChunkRecordCases(t *testing.T) {
	twoCol := NewParseSpec(',', 2, []FieldSpec{{Col: 0, Type: types.I64}, {Col: 1, Type: types.Option(types.Str)}}, nil)
	oneCol := NewParseSpec(',', 1, []FieldSpec{{Col: 0, Type: types.Option(types.Str)}}, nil)
	semi := NewParseSpec(';', 3, []FieldSpec{{Col: 0, Type: types.F64}, {Col: 2, Type: types.I64}}, nil)
	cases := []struct {
		name    string
		spec    *ParseSpec
		data    string
		records int
	}{
		{"crlf", twoCol, "1,a\r\n2,b\r\n3,\r\n", 3},
		{"crlf quoted last cell", twoCol, "1,\"a\"\r\n2,\"b\r\nc\"\r\n", 2},
		{"empty trailing record dropped", twoCol, "1,a\n2,b\n\r", 2},
		{"empty trailing crlf record", twoCol, "1,a\r\n\r\n", 2},
		{"empty middle lines", twoCol, "1,a\n\n\r\n2,b\n", 4},
		{"empty middle lines, one column", oneCol, "a\n\nb\n\r\nc", 5},
		{"unterminated final record", twoCol, "1,a\n2,b", 2},
		{"unterminated final crlf", twoCol, "1,a\n2,b\r", 2},
		{"custom delimiter", semi, "1.5;x;2\n-0.25;\"y;z\";3\n7;x;y\n", 3},
		{"wrong column counts", twoCol, "1\n1,a,b\n1,a\n", 3},
		{"mid-cell quote", twoCol, "1,a\"b\n2,c\"\n3,d\n", 2},
		{"unterminated quote", twoCol, "1,a\n2,\"b\n3,c\n", 2},
	}
	for _, c := range cases {
		for _, cut := range []int{1, 2, 3, 4096} {
			checkParseChunk(t, c.spec, []byte(c.data), cut)
		}
		var b ChunkBatch
		c.spec.ParseChunk([]byte(c.data), 0, 4096, c.spec.NewVecsFor(), &b)
		if b.Records != c.records {
			t.Errorf("%s: %d records, want %d", c.name, b.Records, c.records)
		}
	}
}

// TestParseChunkSlowRecords pins when the exact-boundary path engages:
// never on records whose quotes all open cells, once per record holding
// a quote that does not.
func TestParseChunkSlowRecords(t *testing.T) {
	spec := NewParseSpec(',', 3, []FieldSpec{{Col: 0, Type: types.I64}, {Col: 2, Type: types.Str}}, nil)
	var b ChunkBatch
	clean := "1,\"a,b\",\"c\"\"d\"\n2,\"multi\nline\",x\n3,\"q\"junk,y\n"
	spec.ParseChunk([]byte(clean), 0, 4096, spec.NewVecsFor(), &b)
	if b.Records != 3 || b.Slow != 0 || len(b.Rejects) != 0 {
		t.Fatalf("quoted cells: records %d slow %d rejects %d, want 3/0/0", b.Records, b.Slow, len(b.Rejects))
	}
	dirty := "1,say \"hi\",x\n2,ok,y\n3,\"q\"ju\"\"nk,z\n"
	spec.ParseChunk([]byte(dirty), 0, 4096, spec.NewVecsFor(), &b)
	if b.Records != 3 || b.Slow != 2 {
		t.Fatalf("mid-cell quotes: records %d slow %d, want 3/2", b.Records, b.Slow)
	}
}

func TestParseChunkRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := range 3000 {
		spec := randSpec(uint64(i))
		data := randChunk(r, spec)
		checkParseChunk(t, spec, data, 1+r.IntN(5))
		checkParseChunk(t, spec, data, 4096)
	}
}

// FuzzParseChunk holds the batch parser to SplitRecords + ParseLineVecs
// on arbitrary bytes, random specs and random batch cuts.
func FuzzParseChunk(f *testing.F) {
	seeds := []string{
		"1,a\r\n2,b\r\n", "1,a\n\n2,b\n\r", "1,a\n2,b", "a;b\n;\n",
		`1,ab"c` + "\n2,d\"\n3,e\n", `1,"es""caped",x` + "\n", "1,\"multi\nline\",x\n",
		`1,"q"garbage,x` + "\n" + `2,"q"gar"bage,y` + "\n",
		"999999999999999999,1\n9223372036854775807,2\n9223372036854775808,3\n18446744073709551616,4\n",
		"12345678901234567890.5,1\n1e5,2\n1.5E-3,3\n0.06,4\n",
		"n/a,N/A\nNA,\n-1,0\n", "\"unterminated,1\n2,3\n",
		// The edges of a record the walk ends by itself: CRLF endings, a
		// bare '\r' ending the last record, a '\r' or a '"' right after a
		// digit mid-record, an unterminated final record.
		"1,2.5\r\n3,4\r\n", "1,2\n3,4\r", "1\r2,3\n4,5\n", "1,2\"3\n4,5\"\n6,7\n", "1,2\n3,4",
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint64(i), uint16(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, cut uint16) {
		checkParseChunk(t, randSpec(seed), data, 1+int(cut)%4096)
	})
}
