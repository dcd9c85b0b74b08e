package csvio

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/types"
)

// withLazy is spec with the fields whose bit is set in mask marked lazy.
func withLazy(spec *ParseSpec, mask uint64) *ParseSpec {
	fields := slices.Clone(spec.Fields)
	for i := range fields {
		fields[i].Lazy = mask>>(i%64)&1 != 0
	}
	return NewParseSpec(spec.Delim, spec.NumCols, fields, spec.NullValues)
}

// checkParseChunk runs data through ParseChunk in batches of cut records
// and, batch by batch, through SplitRecords + ParseLineVecs, and requires
// the same record count, accepted raw records, rejects (index, bytes,
// code) and vectors (length, null bits, payload bits). ParseChunk runs
// with the fields of lazy's set bits lazy; after each call every lazy
// cell left is converted (half of them first at a random half of the
// rows) and counted.
func checkParseChunk(t *testing.T, spec *ParseSpec, lazy uint64, data []byte, cut int) {
	t.Helper()
	recs := SplitRecords(data)
	want, got := spec.NewVecsFor(), spec.NewVecsFor()
	chunkSpec := withLazy(spec, lazy)
	var b ChunkBatch
	var sel []int32
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
		next := chunkSpec.ParseChunk(data, pos, cut, got, &b)
		if n := len(b.Raws); len(got) > 0 && got[0].Len() != n {
			t.Fatalf("%q (cut %d): %d rows for %d accepted records", data, cut, got[0].Len(), n)
		}
		if lazy == 0 && b.LazyCells != 0 {
			t.Fatalf("%q (cut %d): %d lazy cells with no lazy field", data, cut, b.LazyCells)
		}
		sel = sel[:0]
		for r := range len(b.Raws) {
			if (r^int(lazy))%2 == 0 {
				sel = append(sel, int32(r))
			}
		}
		for _, v := range got {
			b.Ensure(v, sel)
		}
		sel = sel[:0]
		for r := range len(b.Raws) {
			sel = append(sel, int32(r))
		}
		b.EnsureAll(sel)
		b.EnsureAll(sel) // converted cells stay converted
		if b.Converted != b.LazyCells {
			t.Fatalf("%q (cut %d): converted %d of %d lazy cells", data, cut, b.Converted, b.LazyCells)
		}
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
			checkParseChunk(t, c.spec, 0, []byte(c.data), cut)
			checkParseChunk(t, c.spec, ^uint64(0), []byte(c.data), cut)
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
		checkParseChunk(t, spec, 0, data, 1+r.IntN(5))
		checkParseChunk(t, spec, r.Uint64(), data, 1+r.IntN(5))
		checkParseChunk(t, spec, r.Uint64(), data, 4096)
	}
}

// TestParseChunkLazyCells pins the plain shapes a lazy field leaves
// unconverted — and the spellings next to them that the walk converts —
// against the eager parse, at a record's end, at the chunk's end and
// before a CRLF.
func TestParseChunkLazyCells(t *testing.T) {
	i64 := NewParseSpec(',', 2, []FieldSpec{{Col: 0, Type: types.I64}, {Col: 1, Type: types.Option(types.I64)}}, nil)
	f64 := NewParseSpec(',', 2, []FieldSpec{{Col: 0, Type: types.F64}, {Col: 1, Type: types.Option(types.F64)}}, []string{"", "n/a"})
	// A null spelling that reads as a number keeps its field off the
	// in-place path, and so eager.
	f64z := NewParseSpec(',', 2, []FieldSpec{{Col: 0, Type: types.F64}, {Col: 1, Type: types.Option(types.F64)}}, []string{"0.0"})
	cases := []struct {
		spec    *ParseSpec
		data    string
		lazy    int // lazy cells of the accepted records
		records int // accepted records
	}{
		{i64, "1,2\n-3,+4\n", 4, 2},
		{i64, "123456789012345678,1\n1234567890123456789,2\n12345678901234567890,3\n", 3, 2},
		{i64, "-,1\n+,2\n-5,\n7,-\n", 1, 1},
		{i64, "1,2\r\n3,4\r\n5,6", 6, 3},
		{i64, "1,2\n3,4\r", 4, 2},
		{i64, "1,\"2\"\n\"3\",4\n", 2, 2},
		{f64, "1.5,2.25\n123456789012345,1\n1234567890123456,2\n12345678901.2345,0.5\n1234567890123.456,0.5\n", 8, 5},
		{f64, "1.,2\n.5,3\n1e5,4\n", 3, 3},
		{f64, "1,0.0\n2,n/a\n3,\n", 4, 3},
		{f64, "1.25,-0.0\r\n2,+7.5\r\n", 4, 2},
		{f64z, "1,0.0\n2,1.5\n", 2, 2},
	}
	for _, c := range cases {
		checkParseChunk(t, c.spec, ^uint64(0), []byte(c.data), 4096)
		var b ChunkBatch
		vecs := c.spec.NewVecsFor()
		withLazy(c.spec, ^uint64(0)).ParseChunk([]byte(c.data), 0, 4096, vecs, &b)
		if b.LazyCells != c.lazy || len(b.Raws) != c.records {
			t.Errorf("%q: %d lazy cells in %d records, want %d in %d", c.data, b.LazyCells, len(b.Raws), c.lazy, c.records)
		}
	}
}

// plainRef is the plain shape read a byte at a time: [sign]digits of at
// most maxInt digits, or with frac also [sign]digits.digits of at most 15
// digits in all; the end, or -1.
func plainRef(s []byte, i int, frac bool) int {
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	e := i
	for e < len(s) && s[e] >= '0' && s[e] <= '9' {
		e++
	}
	digits := e - i
	if !frac {
		if digits == 0 || digits > 18 {
			return -1
		}
		return e
	}
	if digits == 0 {
		return -1
	}
	if e < len(s) && s[e] == '.' {
		f := e + 1
		for e = f; e < len(s) && s[e] >= '0' && s[e] <= '9'; e++ {
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

// TestPlainShapes holds plainI64 and plainDecimal, whose word-at-a-time
// steps read cells with 8 or 16 bytes to spare, to the byte-at-a-time
// shape, on generated cells at every offset before the buffer's end,
// wordDigits to strconv on every run plainWord reads, and scanWordI64 to
// scanI64.
func TestPlainShapes(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	alphabet := []byte("0123456789012345678901234567890123456789..+-,\n\r\"e \x00\xff\xfa\xf9/:")
	for range 20000 {
		var cell []byte
		for range r.IntN(24) {
			cell = append(cell, alphabet[r.IntN(len(alphabet))])
		}
		if r.IntN(2) == 0 {
			// Mostly digit runs with a '.' in them.
			cell = cell[:0]
			for range 1 + r.IntN(9) {
				cell = append(cell, byte('0'+r.IntN(10)))
			}
			if r.IntN(3) > 0 {
				cell = append(cell, '.')
				for range r.IntN(10) {
					cell = append(cell, byte('0'+r.IntN(10)))
				}
			}
			cell = append(cell, alphabet[40+r.IntN(len(alphabet)-40)])
		}
		for pad := 0; pad < 18; pad++ {
			s := append(slices.Clone(cell), make([]byte, pad)...)
			for j := range pad {
				s[len(cell)+j] = alphabet[r.IntN(len(alphabet))]
			}
			if got, want := plainI64(s, 0), plainRef(s, 0, false); got != want {
				t.Fatalf("plainI64(%q) = %d, want %d", s, got, want)
			}
			if got, want := plainDecimal(s, 0), plainRef(s, 0, true); got != want {
				t.Fatalf("plainDecimal(%q) = %d, want %d", s, got, want)
			}
			if w, n := plainWord(s, 0); n > 0 {
				if want, err := strconv.ParseUint(string(s[:n]), 10, 64); err != nil || wordDigits(w, n) != want {
					t.Fatalf("wordDigits(%q, %d) = %d, want %d", s, n, wordDigits(w, n), want)
				}
			}
			x, e := scanWordI64(s, 0)
			if x0, e0 := scanI64(s, 0); x != x0 || e != e0 {
				t.Fatalf("scanWordI64(%q) = %d, %d, scanI64 %d, %d", s, x, e, x0, e0)
			}
		}
	}
	// Every run length, with leading zeros and nines.
	for n := 1; n <= 7; n++ {
		for _, d := range []string{"0000000", "9999999", "1000000", "0000001", "1234567", "7654321"} {
			s := []byte(d[:n] + ",0000000")
			if w, k := plainWord(s, 0); k != n || wordDigits(w, k) != must(strconv.ParseUint(d[:n], 10, 64)) {
				t.Fatalf("%q: plainWord run %d, wordDigits %d", s, k, wordDigits(w, k))
			}
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
		// Lazy fields' edges: the longest plain floats and ints and the
		// spellings one digit past them, a sign alone, "1." and ".5",
		// null spellings that read as numbers, and a plain cell last in
		// its record and in the chunk.
		"123456789012345,1.5\n1234567890123456,2\n1.23456789012345,3\n",
		"123456789012345678,1\n1234567890123456789,2\n12345678901234567890,3\n",
		"-,1\n+,2\n1.,3\n.5,4\n-0,-0.0\n", "0,-1\n1.5,n/a\n,0\n",
		"1,2\r\n3,4\r\n", "5,6\n7,8",
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint64(i), uint16(i), uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, cut uint16, lazy uint64) {
		checkParseChunk(t, randSpec(seed), lazy, data, 1+int(cut)%4096)
	})
}
