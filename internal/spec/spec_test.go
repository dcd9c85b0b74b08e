package spec

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// complexPipeline exercises every operator kind, WithGlobal bindings,
// resolvers, a join build side and explicit options.
func complexPipeline() *Pipeline {
	hdr := true
	on, off := true, false
	return &Pipeline{
		V: Version,
		Source: Source{
			Kind:       "csv",
			Path:       "zillow.csv",
			Header:     &hdr,
			NullValues: []string{"", "NULL"},
		},
		Ops: []Op{
			{Kind: "withColumn", Col: "bedrooms", UDF: &UDF{Code: "lambda x: int(x['facts and features'].split(' ')[0])"}},
			{Kind: "resolve", Exc: "ValueError", UDF: &UDF{Code: "lambda x: 0"}},
			{Kind: "ignore", Exc: "TypeError"},
			{Kind: "filter", UDF: &UDF{Code: "lambda x: x['bedrooms'] < 10"}},
			{Kind: "mapColumn", Col: "zipcode", UDF: &UDF{Code: "lambda z: '%05d' % int(z)"}},
			{Kind: "renameColumn", Old: "zipcode", New: "zip"},
			{Kind: "map", UDF: &UDF{
				Code:    "lambda x: {'zip': x['zip'], 'tag': prefix + x['zip']}",
				Globals: map[string]any{"prefix": "z-", "limit": int64(99999)},
			}},
			{Kind: "join", LeftKey: "zip", RightKey: "zip",
				Build: &Pipeline{
					Source: Source{Kind: "parallelize",
						Columns: []string{"zip", "region"},
						Rows:    [][]any{{"02139", "cambridge"}, {"10001", "nyc"}},
					},
				},
				Left: true, RightPrefix: "r_",
			},
			{Kind: "selectColumns", Cols: []string{"zip", "tag", "r_region"}},
			{Kind: "unique"},
			{Kind: "cache"},
		},
		Sink: Sink{Kind: "csv", Path: ""},
		Options: &Options{
			Executors:          4,
			SampleSize:         256,
			ProjectionPushdown: &on,
			FilterPushdown:     &on,
			JoinReorder:        &off,
			Seed:               7,
		},
	}
}

func aggregatePipeline() *Pipeline {
	return &Pipeline{
		V: Version,
		Source: Source{Kind: "parallelize",
			Columns: []string{"a", "b"},
			Rows:    [][]any{{int64(1), 2.5}, {int64(3), 4.5}, {int64(5), 6.5}},
		},
		Ops: []Op{
			{Kind: "filter", UDF: &UDF{Code: "lambda x: x['a'] > 1"}},
		},
		Sink: Sink{
			Kind:    "aggregate",
			Agg:     &UDF{Code: "lambda acc, row: acc + row['a']"},
			Comb:    &UDF{Code: "lambda a, b: a + b"},
			Initial: int64(0),
		},
	}
}

func textPipeline() *Pipeline {
	return &Pipeline{
		V:      Version,
		Source: Source{Kind: "text", Data: "alpha\nbeta\ngamma\n", Column: "line"},
		Ops: []Op{
			{Kind: "map", UDF: &UDF{Code: "lambda line: len(line)"}},
		},
		Sink: Sink{Kind: "take", N: 2},
	}
}

func goldenCases() map[string]*Pipeline {
	return map[string]*Pipeline{
		"complex.json":   complexPipeline(),
		"aggregate.json": aggregatePipeline(),
		"text.json":      textPipeline(),
	}
}

// TestGoldenFiles pins the wire encoding: each golden file must decode
// and re-encode byte-identically, and the in-memory constructions above
// must still produce exactly the committed bytes.
func TestGoldenFiles(t *testing.T) {
	for name, p := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			got, err := p.EncodeIndent()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if *update {
				os.MkdirAll("testdata", 0o755)
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("encoding drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
			// Round trip: decode the golden, re-encode, byte-identical.
			dec, err := Decode(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			again, err := dec.EncodeIndent()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("round trip drifted for %s:\n--- got ---\n%s", name, again)
			}
		})
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	_, err := Decode([]byte(`{"v": 2, "source": {"kind": "csv", "path": "x.csv"}}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported spec version 2") {
		t.Fatalf("want version error, got %v", err)
	}
	_, err = Decode([]byte(`{"source": {"kind": "csv", "path": "x.csv"}}`))
	if err == nil || !strings.Contains(err.Error(), "unsupported spec version 0") {
		t.Fatalf("want version error for missing v, got %v", err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"v": 1, "source": {"kind": "csv", "path": "x.csv"}, "bogus": 1}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

// TestDecodeRejectsStreamingOption: every CSV and text source is read
// in chunks and every stage runs on the batch plane, so the old
// streaming and columnar toggles are no longer part of the wire form and
// a spec carrying either fails strict decode, naming the field.
func TestDecodeRejectsStreamingOption(t *testing.T) {
	for _, field := range []string{"streaming", "columnar"} {
		_, err := Decode([]byte(`{"v": 1, "source": {"kind": "csv", "path": "x.csv"}, "options": {"` + field + `": false}}`))
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: want *DecodeError, got %T: %v", field, err, err)
		}
		if want := `options: unknown field "` + field + `"`; len(de.Problems) != 1 || de.Problems[0] != want {
			t.Fatalf("problems = %q, want the unknown %s field", de.Problems, field)
		}
	}
}

func TestDecodeAccumulatesAllProblems(t *testing.T) {
	_, err := Decode([]byte(`{"v": 2,
		"source": {"kind": "csv", "path": "x.csv", "sep": ","},
		"ops": [
			{"kind": "map", "udf": {"code": "lambda x: x", "global": {}}, "cool": 1},
			{"kind": "join", "left_key": "a", "right_key": "a",
			 "build": {"source": {"kind": "csv", "path": "y.csv", "seperator": ";"}}}
		],
		"bogus": 1, "also_bogus": 2}`))
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("want *DecodeError, got %T: %v", err, err)
	}
	want := []string{
		`pipeline: unknown field "also_bogus"`,
		`pipeline: unknown field "bogus"`,
		`unsupported spec version 2 (this build reads "v": 1)`,
		`source: unknown field "sep"`,
		`ops[0]: unknown field "cool"`,
		`ops[0].udf: unknown field "global"`,
		`ops[1].build.source: unknown field "seperator"`,
	}
	if len(de.Problems) != len(want) {
		t.Fatalf("got %d problems %q, want %d", len(de.Problems), de.Problems, len(want))
	}
	for i, w := range want {
		if de.Problems[i] != w {
			t.Errorf("problem[%d] = %q, want %q", i, de.Problems[i], w)
		}
	}
	if !strings.Contains(err.Error(), "7 problems") {
		t.Errorf("Error() should count problems, got %q", err.Error())
	}
}

func TestBuildRejectsUnknownOp(t *testing.T) {
	p, err := Decode([]byte(`{"v": 1,
		"source": {"kind": "parallelize", "columns": ["a"], "rows": [[1]]},
		"ops": [{"kind": "explode"}]}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	_, err = p.Build()
	if err == nil || !strings.Contains(err.Error(), `unknown op kind "explode"`) ||
		!strings.Contains(err.Error(), "known kinds:") {
		t.Fatalf("want actionable unknown-op error, got %v", err)
	}
}

func TestBuildRejectsUnknownSourceAndSink(t *testing.T) {
	p := &Pipeline{Source: Source{Kind: "avro", Path: "x"}}
	if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), `unknown source kind "avro"`) {
		t.Fatalf("want source-kind error, got %v", err)
	}
	p = &Pipeline{
		Source: Source{Kind: "parallelize", Columns: []string{"a"}, Rows: [][]any{{int64(1)}}},
		Sink:   Sink{Kind: "parquet"},
	}
	if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), `unknown sink kind "parquet"`) {
		t.Fatalf("want sink-kind error, got %v", err)
	}
}

func TestBuildRejectsUnknownException(t *testing.T) {
	p := &Pipeline{
		Source: Source{Kind: "parallelize", Columns: []string{"a"}, Rows: [][]any{{int64(1)}}},
		Ops:    []Op{{Kind: "ignore", Exc: "SegfaultError"}},
	}
	if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), "SegfaultError") {
		t.Fatalf("want exception-kind error, got %v", err)
	}
}

// TestBuildAndExecute lowers a decoded spec and runs it end to end.
func TestBuildAndExecute(t *testing.T) {
	data := `{"v": 1,
		"source": {"kind": "parallelize", "columns": ["a", "b"],
			"rows": [[1, "x"], [2, "y"], [3, "z"]]},
		"ops": [
			{"kind": "filter", "udf": {"code": "lambda x: x['a'] >= 2"}},
			{"kind": "withColumn", "col": "c", "udf": {"code": "lambda x: x['a'] * k", "globals": {"k": 10}}}
		],
		"options": {"executors": 1}}`
	p, err := Decode([]byte(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b, err := p.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := core.Execute(b.Node, b.Kind, "", b.Opts)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got := len(res.Rows); got != 2 {
		t.Fatalf("want 2 rows, got %d", got)
	}
	if got := res.Rows[1]; got[0] != int64(3) || got[1] != "z" || got[2] != int64(30) {
		t.Fatalf("second row = %#v, want [3 z 30]", got)
	}
}

// TestAggregateSinkBuilds checks the fold is appended to the chain.
func TestAggregateSinkBuilds(t *testing.T) {
	b, err := aggregatePipeline().Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if !b.IsAgg {
		t.Fatalf("want IsAgg")
	}
	res, err := core.Execute(b.Node, b.Kind, "", b.Opts)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("aggregate shape: %v", res.Rows)
	}
	if got := res.Rows[0][0]; got != int64(8) {
		t.Fatalf("want 8, got %v", got)
	}
}

// TestNumbersStayIntegral pins the json.Number normalization: integer
// globals and rows survive a decode/encode cycle as integers.
func TestNumbersStayIntegral(t *testing.T) {
	in := []byte(`{"v": 1,
		"source": {"kind": "parallelize", "columns": ["a"], "rows": [[1], [2.5]]},
		"ops": [{"kind": "map", "udf": {"code": "lambda a: a + k", "globals": {"k": 3}}}]}`)
	p, err := Decode(in)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, ok := p.Source.Rows[0][0].(int64); !ok || got != 1 {
		t.Fatalf("row int: got %T %v", p.Source.Rows[0][0], p.Source.Rows[0][0])
	}
	if got, ok := p.Source.Rows[1][0].(float64); !ok || got != 2.5 {
		t.Fatalf("row float: got %T %v", p.Source.Rows[1][0], p.Source.Rows[1][0])
	}
	if got, ok := p.Ops[0].UDF.Globals["k"].(int64); !ok || got != 3 {
		t.Fatalf("global int: got %T", p.Ops[0].UDF.Globals["k"])
	}
	out, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !strings.Contains(string(out), `"rows":[[1],[2.5]]`) {
		t.Fatalf("integers drifted in encode: %s", out)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(file, []byte("a,b\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(code string) *Pipeline {
		return &Pipeline{
			V:      Version,
			Source: Source{Kind: "csv", Path: file},
			Ops:    []Op{{Kind: "map", UDF: &UDF{Code: code}}},
		}
	}
	fp := func(p *Pipeline) string {
		s, err := p.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		return s
	}
	base := fp(mk("lambda x: x['a']"))
	if again := fp(mk("lambda x: x['a']")); again != base {
		t.Fatalf("identical specs must fingerprint identically")
	}
	if changed := fp(mk("lambda x: x['b']")); changed == base {
		t.Fatalf("UDF edit must change the fingerprint")
	}
	// Input prefix drift (schema drift included) changes the key.
	if err := os.WriteFile(file, []byte("a,b,c\n1,2,x\n3,4,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if drifted := fp(mk("lambda x: x['a']")); drifted == base {
		t.Fatalf("input drift must change the fingerprint")
	}
	// Missing files fingerprint (to their error) rather than failing.
	os.Remove(file)
	if missing := fp(mk("lambda x: x['a']")); missing == base {
		t.Fatalf("missing input must not collide with the original")
	}
}

// TestOptionsRoundTrip pins fromOptions/resolve as inverses over the
// engine defaults and a modified set.
func TestOptionsRoundTrip(t *testing.T) {
	cases := []core.Options{core.DefaultOptions()}
	mod := core.DefaultOptions()
	mod.Executors = 8
	mod.Fusion = false
	mod.Sample.Size = 123
	mod.Seed = 42
	cases = append(cases, mod)
	for i, want := range cases {
		got := fromOptions(want).resolve()
		// Trace/telemetry are process-level and not part of the wire form.
		got.Trace = want.Trace
		got.Telemetry = want.Telemetry
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: options drifted:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
