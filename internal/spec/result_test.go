package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzAppendResult: the typed appender writes exactly json.Marshal's
// bytes for every cell kind ResultRows produces, and fails exactly on
// non-finite floats, naming the row and the column.
func FuzzAppendResult(f *testing.F) {
	for _, s := range []string{"", "plain", "\xff\xfe bad \xc3", "<a href='x'>&amp;</a>",
		"line\u2028para\u2029", "\x00\x01\b\f\n\r\t\x1f\x7f\"\\", "\u00e9 \u00fc \u65e5\u672c \U0001F642"} {
		f.Add(s, 1.5, int64(7), true, "k")
	}
	for _, x := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 5e-324,
		math.MaxFloat64, -123456789.125, 0.1, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add("s", x, int64(-1), false, "z")
	}
	for _, n := range []int64{math.MaxInt64, math.MinInt64, 0, 255, 256, -256} {
		f.Add("s", 2.0, n, true, "")
	}
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, b bool, key string) {
		cells := []any{nil, b, n, x, s,
			[]any{s, x, []any{n, nil}, []any{}},
			map[string]any{key: x, "z": s, "a": n, "m": []any{b}},
		}
		for _, v := range cells {
			want, werr := json.Marshal(v)
			got, gerr := AppendValue([]byte("prefix"), v)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("AppendValue(%#v): error %v, json.Marshal error %v", v, gerr, werr)
			}
			if werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("AppendValue(%#v) = %s, json.Marshal = %s", v, got[6:], want)
			}
		}
		rows := [][]any{cells[:5], nil, {}, cells[5:]}
		want, werr := json.Marshal(rows)
		got, gerr := AppendResult(nil, []string{"c0", "c1", "c2", "c3"}, rows)
		nonFinite := math.IsInf(x, 0) || math.IsNaN(x)
		if (werr != nil) != nonFinite || (gerr != nil) != nonFinite {
			t.Fatalf("x=%v: AppendResult error %v, json.Marshal error %v", x, gerr, werr)
		}
		if nonFinite {
			if msg := gerr.Error(); !strings.Contains(msg, `row 0, column "c3"`) || !strings.Contains(msg, "unsupported value") {
				t.Fatalf("error does not name the row, column and value: %v", gerr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendResult = %s\njson.Marshal = %s", got, want)
		}
	})
}

func TestAppendResultNamesTheCell(t *testing.T) {
	rows := [][]any{{3.0, "x"}, {"y", math.Inf(1)}}
	_, err := AppendResult(nil, []string{"a"}, rows)
	if err == nil || !strings.Contains(err.Error(), "result row 1, column 1: json: unsupported value: +Inf") {
		t.Fatalf("got %v", err)
	}
	if b, err := AppendResult(nil, nil, nil); err != nil || string(b) != "null" {
		t.Fatalf("nil rows: %s, %v", b, err)
	}
}

// TestDecodeRowsMatchesUnmarshal: DecodeRows gives json.Unmarshal's
// value, and fails exactly when it fails, on documents that exercise
// the direct reader and each hand-off to encoding/json.
func TestDecodeRowsMatchesUnmarshal(t *testing.T) {
	for _, doc := range []string{
		`null`, ` null `, `[]`, `[ ]`, `[null]`, `[[]]`, `[[], null, [1]]`,
		`[["a",1,-2.5,true,false,null]]`,
		` [ [ "a" , 1e3 ,-0, 0.5E-3 ] , [ 1E+2 ] ] `,
		`[["esc\"aped","tab\tin","\u00e9","\ud83d\ude00"]]`,
		`[["bad utf8 ` + "\xff" + `","` + "\u00e9" + `"]]`,
		`[[[1,[2]],{"k":"v","n":{"a":[]}}, "]", "[{"]]`,
		`[[1e400]]`, `[[-1e400]]`, `[[1e-400]]`,
		// Malformed or mistyped: each must fail as json.Unmarshal does.
		``, `[`, `[[`, `[[1]`, `[[1],]`, `[[1,]]`, `[[,1]]`, `[[1 2]]`, `[[1]] x`,
		`[1]`, `["a"]`, `[{"a":1}]`, `{}`, `nul`, `[[nul]]`, `[[tru]]`, `[[nulll]]`,
		`[[01]]`, `[[1.]]`, `[[.5]]`, `[[+1]]`, `[[-]]`, `[[1e]]`, `[[0x10]]`, `[[Infinity]]`,
		`[["ctl` + "\x01" + `"]]`, `[["unterminated]]`, `[["\x"]]`, `[[[1,2]]`, `[[{"a":1]]]`,
		`[[1]]]`, `[[1],[2]`, `[["a"` + "\x00" + `]]`,
	} {
		var want [][]any
		werr := json.Unmarshal([]byte(doc), &want)
		got, gerr := DecodeRows([]byte(doc))
		if (werr != nil) != (gerr != nil) {
			t.Errorf("%q: DecodeRows error %v, json.Unmarshal error %v", doc, gerr, werr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: DecodeRows = %#v, json.Unmarshal = %#v", doc, got, want)
		}
	}
}

// TestDecodeRowsReadsPlainCellsDirectly: a rows array of plain tokens
// never reaches encoding/json, so decoding it allocates a bounded
// number of slabs rather than one box per cell.
func TestDecodeRowsReadsPlainCellsDirectly(t *testing.T) {
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{"https://example.com/home/" + strings.Repeat("x", i%17), int64(i), float64(i) + 0.5, nil, true}
	}
	doc, err := AppendResult(nil, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeRows(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("decoding %d plain cells took %.0f allocations", 5*len(rows), allocs)
	}
}

func TestRowsSpan(t *testing.T) {
	for doc, want := range map[string]string{
		`{"id":"j1","result":{"columns":["a"],"rows":[[1],["]"]],"output_rows":2}}`: `[[1],["]"]]`,
		` { "events" : [ {"kind":"admit"} ] , "result" : { "rows" : [ ] } } `:       `[ ]`,
		`{"result":{"value":{"rows":[[1]]},"rows":[["x"]]}}`:                        `[["x"]]`,
		// Refused: the rows are absent, not an array, or another member
		// could match either name.
		`{"result":{"value":1}}`:                 ``,
		`{"result":{"rows":null}}`:               ``,
		`{"result":null}`:                        ``,
		`[{"result":{"rows":[]}}]`:               ``,
		`{"result":{"rows":[],"Rows":[[1]]}}`:    ``,
		`{"result":{"rows":[],"rows":[[1]]}}`:    ``,
		`{"Result":{"rows":[]}}`:                 ``,
		`{"r\u0065sult":{"rows":[]}}`:            ``,
		`{"result":{"row\u017f":[],"rows":[]}}`:  ``,
		`{"result":{"rows":[]},"result":{}}`:     ``,
		`{"result":{},"result":{"rows":[]}}`:     ``,
		`{"result":{"rows":[[1]]`:                ``,
		`{"result":{"rows":[[1]]}, "x":"unterm}`: ``,
	} {
		start, end, ok := RowsSpan([]byte(doc))
		if got := doc[start:end]; ok != (want != "") || got != want {
			t.Errorf("RowsSpan(%s) = %q, %v; want %q", doc, got, ok, want)
		}
	}
}
