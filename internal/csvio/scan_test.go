package csvio

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// TestIntegerCellRange pins the int64 boundary of the strict integer
// parsers: 18- and 19-digit cells inside the range parse exactly, the
// first value past either end (and every 20-digit cell) is rejected —
// through the row parser, the vector parser and the general sniffer.
func TestIntegerCellRange(t *testing.T) {
	cases := []struct {
		cell string
		want int64
		ok   bool
	}{
		{"999999999999999999", 999999999999999999, true},     // 18 digits
		{"-999999999999999999", -999999999999999999, true},   // 18 digits
		{"1000000000000000000", 1000000000000000000, true},   // 19 digits
		{"9223372036854775807", math.MaxInt64, true},         // MaxInt64
		{"+9223372036854775807", math.MaxInt64, true},        //
		{"9223372036854775808", 0, false},                    // MaxInt64+1
		{"-9223372036854775808", math.MinInt64, true},        // MinInt64
		{"-9223372036854775809", 0, false},                   // MinInt64-1
		{"9999999999999999999", 0, false},                    // 19 digits, out of range
		{"18446744073709551616", 0, false},                   // 20 digits: 2^64, wrapped to 0 before
		{"18446744073709551617", 0, false},                   // 20 digits: wrapped to 1 before
		{"-18446744073709551617", 0, false},                  //
		{"00000000000000000000042", 42, true},                // leading zeros are not magnitude
		{"99999999999999999999999999999999999999", 0, false}, //
	}
	spec := NewParseSpec(',', 2, []FieldSpec{{Col: 0, Type: types.I64}, {Col: 1, Type: types.Str}}, nil)
	for _, c := range cases {
		if v, ok := ParseI64(c.cell); ok != c.ok || v != c.want {
			t.Errorf("ParseI64(%q) = %d, %v; want %d, %v", c.cell, v, ok, c.want, c.ok)
		}
		if v, ok := ParseI64Bytes([]byte(c.cell), ""); ok != c.ok || v != c.want {
			t.Errorf("ParseI64Bytes(%q) = %d, %v; want %d, %v", c.cell, v, ok, c.want, c.ok)
		}

		line := []byte(c.cell + ",x")
		wantEC := pyvalue.ExcKind(0)
		if !c.ok {
			wantEC = pyvalue.ExcBadParse
		}
		out := make(rows.Row, 2)
		if ec := spec.ParseLine(line, out); ec != wantEC {
			t.Errorf("ParseLine(%q) = %v, want %v", line, ec, wantEC)
		} else if c.ok && out[0].I != c.want {
			t.Errorf("ParseLine(%q) cell = %d, want %d", line, out[0].I, c.want)
		}
		vecs := spec.NewVecsFor()
		if ec := spec.ParseLineVecs(line, vecs); ec != wantEC {
			t.Errorf("ParseLineVecs(%q) = %v, want %v", line, ec, wantEC)
		} else if c.ok && (vecs[0].Len() != 1 || vecs[0].I[0] != c.want) {
			t.Errorf("ParseLineVecs(%q) cell = %v, want %d", line, vecs[0].I, c.want)
		} else if !c.ok && vecs[0].Len() != 0 {
			t.Errorf("ParseLineVecs(%q) left %d cells after rejecting", line, vecs[0].Len())
		}

		got := SniffValue(c.cell, DefaultNullValues)
		if c.ok {
			if got != pyvalue.Value(pyvalue.Int(c.want)) {
				t.Errorf("SniffValue(%q) = %#v, want Int(%d)", c.cell, got, c.want)
			}
		} else if _, isInt := got.(pyvalue.Int); isInt {
			t.Errorf("SniffValue(%q) = %#v: out-of-range cell sniffed as an int", c.cell, got)
		}
	}
}

// floatSeeds cover the fast path's edges: the 2^53 mantissa bound, the
// 22-digit power-of-ten bound, digit-count overflow, signed zeros, and
// every spelling that must fall through to strconv.
var floatSeeds = []string{
	"0", "-0", "+0", "0.0", "-0.0", "1", "-1", "0.06", "43503.12", "0.1", "0.3", "2.5", "123456789.125",
	"9007199254740991", "9007199254740992", "9007199254740993", "900719925474099.3", "9007199254740.993",
	"0.9007199254740993", "18446744073709551615", "18446744073709551616", "99999999999999999999",
	"1.0000000000000000000001", "0.0000000000000000000001", "0.00000000000000000000001",
	"123456789012345678.9", "1234567890123456789", "12345678901234567890",
	"1.", ".5", ".", "-", "+", "", "1e5", "1E-5", "1.5e300", "1e-400", "inf", "-Inf", "nan", "NaN", "infinity",
	"0x1p-2", "1_000", "1.2.3", "12a", " 1", "1 ", "--1", "+-1", "４２",
}

func checkParseF64(t *testing.T, s string) {
	t.Helper()
	want, err := strconv.ParseFloat(s, 64)
	wantOK := err == nil
	for name, got := range map[string]func() (float64, bool){
		"ParseF64Bytes": func() (float64, bool) { return ParseF64Bytes([]byte(s)) },
		"ParseF64":      func() (float64, bool) { return ParseF64(s) },
	} {
		f, ok := got()
		if ok != wantOK {
			t.Fatalf("%s(%q) ok = %v, strconv says %v (%v)", name, s, ok, wantOK, err)
		}
		if ok && math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("%s(%q) = %v (%#x), strconv says %v (%#x)", name, s, f, math.Float64bits(f), want, math.Float64bits(want))
		}
	}
}

func TestParseF64MatchesStrconv(t *testing.T) {
	for _, s := range floatSeeds {
		checkParseF64(t, s)
	}
	// Every two-decimal price and every percent discount TPC-H can spell.
	for cents := 0; cents < 200_000; cents += 7 {
		checkParseF64(t, strconv.Itoa(cents/100)+"."+strconv.Itoa(100 + cents%100)[1:])
	}
}

// FuzzParseF64Bytes holds both float parsers to strconv.ParseFloat, bit
// for bit, on arbitrary spellings.
func FuzzParseF64Bytes(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParseF64(t, s) })
}

// splitRecordsRef is the byte-at-a-time record splitter SplitRecords
// replaced, kept as the reference the vectorized scan must match.
func splitRecordsRef(data []byte) [][]byte {
	var out [][]byte
	start := 0
	inQuote := false
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			inQuote = !inQuote
		case '\n':
			if inQuote {
				continue
			}
			end := i
			if end > start && data[end-1] == '\r' {
				end--
			}
			out = append(out, data[start:end])
			start = i + 1
		}
	}
	if start < len(data) {
		end := len(data)
		if end > start && data[end-1] == '\r' {
			end--
		}
		if end > start {
			out = append(out, data[start:end])
		}
	}
	return out
}

// lastRecordEndRef and skipFirstRecordRef are the replaced byte walks of
// the chunk-boundary scans.
func lastRecordEndRef(data []byte, mode ChunkMode) int {
	last := 0
	inQuote := false
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			if mode == ChunkCSV {
				inQuote = !inQuote
			}
		case '\n':
			if !inQuote {
				last = i + 1
			}
		}
	}
	return last
}

func skipFirstRecordRef(data []byte, mode ChunkMode) int {
	inQuote := false
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case '"':
			if mode == ChunkCSV {
				inQuote = !inQuote
			}
		case '\n':
			if !inQuote {
				return i + 1
			}
		}
	}
	return len(data)
}

var splitSeeds = []string{
	"", "\n", "\r\n", "a", "a\n", "a\r\n", "a\nb", "a\n\nb\n", "\n\n", "a\r", "\r",
	"a,b\n1,2\n", "a,\"x\ny\",b\nnext\n", "\"open\nnever closed\n", "a,\"he said \"\"hi\"\"\"\nb\n",
	"\"\"\n\"\"\"\n\"\n", "q\"\n\"q\n", "a\r\nb\r\n\"c\r\nd\"\r\ne", "\"\n\"\n\"\n\"\n", "x\"y\"z\n\"\n\n\"\n",
}

func checkSplit(t *testing.T, data []byte) {
	t.Helper()
	got, want := SplitRecords(data), splitRecordsRef(data)
	if len(got) != len(want) {
		t.Fatalf("SplitRecords(%q): %d records, reference has %d", data, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("SplitRecords(%q): record %d = %q, reference has %q", data, i, got[i], want[i])
		}
	}
	for _, mode := range []ChunkMode{ChunkCSV, ChunkText} {
		if got, want := lastRecordEnd(data, mode), lastRecordEndRef(data, mode); got != want {
			t.Fatalf("lastRecordEnd(%q, %d) = %d, reference says %d", data, mode, got, want)
		}
		if got, want := SkipFirstRecord(data, mode), skipFirstRecordRef(data, mode); got != want {
			t.Fatalf("SkipFirstRecord(%q, %d) = %d, reference says %d", data, mode, got, want)
		}
	}
}

func TestRecordScansMatchByteWalk(t *testing.T) {
	for _, s := range splitSeeds {
		checkSplit(t, []byte(s))
	}
	// Every string over a small alphabet up to length 7 reaches each
	// quote-parity/terminator interleaving.
	alphabet := []byte{'a', '"', '\n', '\r'}
	buf := make([]byte, 0, 7)
	var rec func(n int)
	rec = func(n int) {
		checkSplit(t, buf)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			buf = append(buf, c)
			rec(n - 1)
			buf = buf[:len(buf)-1]
		}
	}
	rec(7)
}

// FuzzSplitRecords holds the vectorized record scans to the byte walks
// they replaced.
func FuzzSplitRecords(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSplit(t, data) })
}
