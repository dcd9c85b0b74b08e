package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// asMain makes the test binary behave as the benchmark binary. The
// benchmark starts each pass as a child of os.Executable(), which under
// `go test` is this binary; the tests set the variable before they call
// run, and the children inherit it.
const asMain = "TUPLEX_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps the contract file and the Go
// tables — which the program actually reports from — identical.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, tables have %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, tables %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, tables have %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metricJSON{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, tables %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if b.Paths[0] != "bench" || len(b.Paths) != 1 {
		t.Errorf("paths = %v", b.Paths)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload at a hundredth of full scale with short
// windows, both passes, and checks what the full run promises: every
// metric of BENCHMARK.json printed exactly once per workload with its
// unit, the oracles ran and agreed, result.json and every trace file
// parse, and every span has a parent or is a root.
func TestSmoke(t *testing.T) {
	t.Setenv(asMain, "1")
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run([]string{"-scale", "0.01", "-seconds", "0.3", "-setups", "1", "-seed", "7", "-dir", dir}, &out, os.Stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	text := out.String()
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, m := range append(append([]metricJSON{}, b.EndToEnd...), b.PerLayer...) {
			re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(w.Name) + ` ` + regexp.QuoteMeta(m.Name) + ` (\S+) (\S+)$`)
			found := re.FindAllStringSubmatch(text, -1)
			if len(found) != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, m.Name, len(found))
				continue
			}
			if found[0][2] != m.Unit {
				t.Errorf("%s %s printed with unit %q, want %q", w.Name, m.Name, found[0][2], m.Unit)
			}
		}
		checked := regexp.MustCompile(`(?m)^# checked ` + regexp.QuoteMeta(w.Name) + ` attempted=(\d+) failed=0 failed_share=0 correct=true$`)
		if m := checked.FindStringSubmatch(text); m == nil || m[1] == "0" {
			t.Errorf("%s: no clean oracle line in output", w.Name)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "out", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(raw)), "\"claim\": null\n}") {
		t.Error(`result.json does not end with "claim": null`)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("result.json lacks %s", w.Name)
		}
		for _, d := range endToEnd {
			if wr.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s %s = %g, end-to-end metrics are never 0", w.Name, d.Name, wr.EndToEnd[d.Name].Value)
			}
		}
		if len(wr.Inputs) == 0 {
			t.Errorf("%s: no input fingerprints recorded", w.Name)
		}
		checkTraceFile(t, filepath.Join(dir, "out", wr.TraceFile))
	}
	// Where a layer is and is not: the facts the README's table rests on.
	layer := func(w, name string) float64 { return rep.Workloads[w].PerLayer[name].Value }
	if layer("serve.warm", "service.cache_hit_share") != 1 || layer("serve.cold", "service.cache_hit_share") != 0 {
		t.Error("cache hits: want all on serve.warm and none on serve.cold")
	}
	if layer("flights.dirty", "core.exception_share") <= 0 || layer("zillow.clean", "core.exception_share") != 0 || layer("q6.scan", "core.exception_share") != 0 {
		t.Error("exception rows: want some on flights.dirty and none on zillow.clean and q6.scan")
	}
	if layer("q6.scan", "csvio.parse_mb_per_s") <= 0 || layer("serve.cold", "csvio.parse_mb_per_s") != 0 {
		t.Error("csvio: want throughput on q6.scan and none on serve.cold")
	}
}

// checkTraceFile loads one Chrome trace and checks the span tree.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(doc.TraceEvents) == 0 {
		t.Errorf("%s: no spans", path)
	}
	names := map[string]bool{}
	for i, e := range doc.TraceEvents {
		names[e.Name] = true
		if e.Ph != "X" || e.Dur < 0 || e.Args["id"] != i {
			t.Errorf("%s: span %d malformed: %+v", path, i, e)
		}
		// A parent is an earlier span of the same run; -1 marks a root.
		if p := e.Args["parent"]; p != -1 && (p < 0 || p >= i || doc.TraceEvents[p].Args["run"] != e.Args["run"]) {
			t.Errorf("%s: span %d (%s) has no valid parent: %d", path, i, e.Name, p)
		}
	}
	for _, want := range []string{"job", "probe", "spec.decode", "core.compile_and_execute", "core.execute"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

// TestContractLine runs one workload the way the driver does and checks
// the last line of output against the contract.
func TestContractLine(t *testing.T) {
	t.Setenv(asMain, "1")
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "q6.scan", "--seed", "3", "--seconds", "1", "--trace", tc.trace,
			"-scale", "0.01", "-setups", "1", "-dir", t.TempDir()}
		if code := run(args, &out, os.Stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d", tc.trace, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fields); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if len(fields) != 4 {
			t.Errorf("trace %s: last line has keys %v", tc.trace, reflect.ValueOf(fields).MapKeys())
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", tc.trace, line)
		}
		if len(line.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(line.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", tc.trace, d.Name, got, ok, d.Unit)
			}
		}
	}
}

// TestSeedDeterminesInputs: the seed is the only source of randomness.
// The same seed gives identical input, oracle and schedule bytes; a
// different seed gives different input bytes.
func TestSeedDeterminesInputs(t *testing.T) {
	generate := func(w *workload, seed uint64) map[string]string {
		dir := t.TempDir()
		if _, err := w.setup(dir, seed, 0.01); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sums := map[string]string{}
		for _, f := range files {
			sum, err := fileSHA256(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sums[f.Name()] = sum
		}
		return sums
	}
	for _, w := range workloads {
		a, again, other := generate(w, 5), generate(w, 5), generate(w, 6)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: seed 5 generated different bytes twice:\n%v\n%v", w.Name, a, again)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 5 and 6 generated identical bytes", w.Name)
		}
	}
	for i := 0; i < 1000; i++ {
		h1, v1 := warmPick(5, i)
		h2, v2 := warmPick(5, i)
		if coldK(5, i) != coldK(5, i) || h1 != h2 || v1 != v2 {
			t.Fatalf("schedule entry %d not a function of the seed", i)
		}
		if k := coldK(5, probeBase+i); k < 0 || k >= 1<<20 {
			t.Fatalf("coldK out of range: %d", k)
		}
	}
	if coldK(5, 0) == coldK(6, 0) {
		t.Error("serve.cold schedules of seeds 5 and 6 start alike")
	}
}

// TestQuartilesMatchPython pins the spread computation to the driver's:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %g, %g, median %g", q1, q3, median(xs))
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.Max != 3 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestSelfTime: a span's self time is its duration minus its children.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1, Run: 7},
		{Name: "child", Start: 10, End: 40, Parent: 0, Run: 7},
		{Name: "child", Start: 50, End: 70, Parent: 0, Run: 7},
	}}
	got := r.selfTimes()
	if got["parent"][7] != 50 || got["child"][7] != 50 {
		t.Errorf("self times = %v", got)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", -1, 0, 0)) // the untraced pass records nothing
}
