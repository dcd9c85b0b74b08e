package pipelines

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
)

// Chunked ingest must be observationally independent of how the bytes
// arrive and how they are cut: same rows, same order, same rendered CSV
// (including exception-row splicing), same row counters, failed rows,
// exception samples in pool order and routing ledger. Each Appendix-A
// pipeline runs over its input as inline data (the reference) and from
// on-disk files at chunk sizes from 4 KiB (many record-boundary and
// batch seams per file) to the default 16 MiB cap, on one and several
// executors, and all must agree.

func writeTemp(t *testing.T, name string, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

type ingestConfig struct {
	name string
	// inline reads the input as CSVData/TextData instead of from files.
	inline bool
	opts   []tuplex.Option
}

var ingestConfigs = []ingestConfig{
	{"inline", true, nil},
	{"streamed-4k", false, []tuplex.Option{tuplex.WithChunkSize(4 << 10)}},
	{"streamed-1x", false, []tuplex.Option{tuplex.WithChunkSize(8 << 10)}},
	{"streamed-4x", false, []tuplex.Option{tuplex.WithChunkSize(8 << 10), tuplex.WithExecutors(4)}},
	{"streamed-64k", false, []tuplex.Option{tuplex.WithChunkSize(64 << 10), tuplex.WithExecutors(2)}},
	{"streamed-1m", false, []tuplex.Option{tuplex.WithChunkSize(1 << 20)}},
	{"streamed-16m", false, nil},
}

// csv opens a CSV source the way cfg reads it: the file at path, or raw
// (the file's bytes) inline.
func (cfg ingestConfig) csv(c *tuplex.Context, path string, raw []byte) *tuplex.DataSet {
	if cfg.inline {
		return c.CSV("", tuplex.CSVData(raw))
	}
	return c.CSV(path)
}

// ingestCtx builds a config's context, tracing exception samples (and so
// the routing ledger) for requireSameRun.
func ingestCtx(opts []tuplex.Option) *tuplex.Context {
	return tuplex.NewContext(append([]tuplex.Option{tuplex.WithTracing(tuplex.TraceSamples)}, opts...)...)
}

// requireSameRun asserts what no ingest configuration may change: the
// row counters, the failed rows, and per stage the exception samples (in
// pool order) and the routing ledger.
func requireSameRun(t *testing.T, name string, base, got *tuplex.Result) {
	t.Helper()
	if got.Metrics.Rows != base.Metrics.Rows {
		t.Fatalf("%s: row counters %+v, inline %+v", name, got.Metrics.Rows, base.Metrics.Rows)
	}
	if !reflect.DeepEqual(got.Failed, base.Failed) {
		t.Fatalf("%s: failed rows %v, inline %v", name, got.Failed, base.Failed)
	}
	g, w := stageSpans(got.Trace.Root), stageSpans(base.Trace.Root)
	if len(g) != len(w) {
		t.Fatalf("%s: %d stages, inline %d", name, len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(g[i].Samples, w[i].Samples) {
			t.Fatalf("%s: stage %d exception samples\n  got  %v\n  want %v", name, i, g[i].Samples, w[i].Samples)
		}
		if !reflect.DeepEqual(g[i].Routing, w[i].Routing) {
			t.Fatalf("%s: stage %d routing ledger\n  got  %+v\n  want %+v", name, i, g[i].Routing, w[i].Routing)
		}
	}
}

// stageSpans lists a trace's stage spans in span order.
func stageSpans(s *tuplex.Span) []*tuplex.Span {
	var out []*tuplex.Span
	if s.Name == "stage" {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, stageSpans(c)...)
	}
	return out
}

// flightsFiles opens the flights inputs from files, as FlightsSources
// does from bytes.
func flightsFiles(c *tuplex.Context, perf, carriers, airports string) FlightsInputs {
	return FlightsInputs{
		Perf:     c.CSV(perf),
		Carriers: c.CSV(carriers),
		Airports: c.CSV(airports,
			tuplex.CSVHeader(false),
			tuplex.CSVDelimiter(':'),
			tuplex.CSVColumns(data.AirportColumns...),
			tuplex.CSVNullValues("", "N/a", "N/A")),
	}
}

func rowStrings(rows []tuplex.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint([]any(r))
	}
	return out
}

func requireSameRows(t *testing.T, name string, base, got []string) {
	t.Helper()
	if len(got) != len(base) {
		t.Fatalf("%s: %d rows, inline %d", name, len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("%s: row %d differs:\n  got  %s\n  want %s", name, i, got[i], base[i])
		}
	}
}

// requireReadOnce asserts a run's ingest equals the total size of the
// sources its plan names: every file or inline input is read exactly
// once per run (sampling reuses the prefix the source binding already
// holds).
func requireReadOnce(t *testing.T, name string, m *tuplex.Metrics, sizes ...int) {
	t.Helper()
	var want int64
	for _, n := range sizes {
		want += int64(n)
	}
	if m.Ingest.BytesRead != want {
		t.Fatalf("%s: BytesRead = %d, want %d (each source read once)", name, m.Ingest.BytesRead, want)
	}
}

func TestStreamingZillowMatchesMaterialized(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 42, DirtyFraction: 0.02})
	path := writeTemp(t, "zillow.csv", raw)
	var base *tuplex.Result
	var baseRows []string
	var baseCSV []byte
	for _, cfg := range ingestConfigs {
		res, err := Zillow(cfg.csv(ingestCtx(cfg.opts), path, raw)).Collect()
		if err != nil {
			t.Fatalf("%s collect: %v", cfg.name, err)
		}
		csvRes, err := Zillow(cfg.csv(ingestCtx(cfg.opts), path, raw)).ToCSV("")
		if err != nil {
			t.Fatalf("%s tocsv: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		requireReadOnce(t, cfg.name+" tocsv", csvRes.Metrics, len(raw))
		rows := rowStrings(res.Rows)
		if base == nil {
			base, baseRows, baseCSV = res, rows, csvRes.CSV
			if base.Metrics.Rows.ExceptionRate() == 0 {
				t.Fatal("no exception rows: the dirty rows no longer exercise the pool")
			}
			continue
		}
		requireSameRows(t, cfg.name, baseRows, rows)
		requireSameRun(t, cfg.name, base, res)
		if !bytes.Equal(csvRes.CSV, baseCSV) {
			t.Fatalf("%s: rendered CSV differs from inline", cfg.name)
		}
	}
}

func TestStreamingFlightsMatchesMaterialized(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 4000, Seed: 11, DivertedFraction: 0.05})
	// Split the performance data into two files (each with its own
	// header) to exercise multi-file streaming: the chunk carry must
	// never cross a file boundary.
	recs := bytes.SplitAfter(perf, []byte("\n"))
	header := recs[0]
	mid := len(recs) / 2
	fileA := bytes.Join(recs[:mid], nil)
	fileB := append(append([]byte(nil), header...), bytes.Join(recs[mid:], nil)...)
	dir := t.TempDir()
	perfPath := filepath.Join(dir, "perf_a.csv") + "," + filepath.Join(dir, "perf_b.csv")
	if err := os.WriteFile(filepath.Join(dir, "perf_a.csv"), fileA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perf_b.csv"), fileB, 0o644); err != nil {
		t.Fatal(err)
	}
	carriersPath := writeTemp(t, "carriers.csv", data.Carriers())
	airportsPath := writeTemp(t, "airports.csv", data.Airports())

	var base []string
	var baseRes *tuplex.Result
	for _, cfg := range ingestConfigs {
		c := ingestCtx(cfg.opts)
		in, perfBytes := flightsFiles(c, perfPath, carriersPath, airportsPath), len(fileA)+len(fileB)
		if cfg.inline {
			in, perfBytes = FlightsSources(c, perf, data.Carriers(), data.Airports()), len(perf)
		}
		res, err := Flights(in).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		// The airports input backs two sources (origin and destination).
		requireReadOnce(t, cfg.name, res.Metrics, perfBytes,
			len(data.Carriers()), len(data.Airports()), len(data.Airports()))
		rows := rowStrings(res.Rows)
		if base == nil {
			base, baseRes = rows, res
			if len(base) == 0 {
				t.Fatal("inline run produced no rows")
			}
			continue
		}
		requireSameRows(t, cfg.name, base, rows)
		requireSameRun(t, cfg.name, baseRes, res)
	}
}

func TestStreamingWeblogsMatchesMaterialized(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 4000, Seed: 5})
	logsPath := writeTemp(t, "access.log", logs)
	badPath := writeTemp(t, "bad_ips.csv", bad)
	// The pipeline anonymizes usernames with random.choice; the PRNG is
	// seeded per partition, so the random letters depend on partition
	// boundaries (which chunked ingest legitimately changes). Normalize
	// the random segment like TestWeblogsAllVariantsAgree does; all
	// other fields must match exactly.
	normalize := func(rows []tuplex.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			endpoint := r[3].(string)
			if strings.HasPrefix(endpoint, "/~") {
				j := strings.IndexByte(endpoint[2:], '/')
				if j < 0 {
					endpoint = "/~*"
				} else {
					endpoint = "/~*" + endpoint[2+j:]
				}
			}
			out[i] = fmt.Sprintf("%v|%v|%v|%v|%v|%v|%v", r[0], r[1], r[2], endpoint, r[4], r[5], r[6])
		}
		return out
	}
	var base []string
	for _, cfg := range ingestConfigs {
		c := tuplex.NewContext(cfg.opts...)
		logsSrc := c.Text(logsPath)
		if cfg.inline {
			logsSrc = c.Text("", tuplex.TextData(logs))
		}
		res, err := Weblogs(logsSrc, cfg.csv(c, badPath, bad), WeblogStrip).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(logs), len(bad))
		rows := normalize(res.Rows)
		if base == nil {
			base = rows
			if len(base) == 0 {
				t.Fatal("inline run produced no rows")
			}
			continue
		}
		requireSameRows(t, cfg.name, base, rows)
	}
}

func TestStreamingThreeOneOneMatchesMaterialized(t *testing.T) {
	raw := data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 5000, Seed: 17})
	path := writeTemp(t, "311.csv", raw)
	var base []string
	var baseRes *tuplex.Result
	for _, cfg := range ingestConfigs {
		res, err := ThreeOneOne(cfg.csv(ingestCtx(cfg.opts), path, raw)).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		// Unique terminal: first-occurrence order must be preserved by
		// the streamed keys, so exact sequence equality is required.
		rows := rowStrings(res.Rows)
		if base == nil {
			base, baseRes = rows, res
			continue
		}
		requireSameRows(t, cfg.name, base, rows)
		requireSameRun(t, cfg.name, baseRes, res)
	}
}

func TestStreamingQ6MatchesMaterialized(t *testing.T) {
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 20000, Seed: 31})
	path := writeTemp(t, "lineitem.csv", raw)
	var base float64
	var baseRes *tuplex.Result
	for _, cfg := range ingestConfigs {
		got, res, err := Q6(cfg.csv(ingestCtx(cfg.opts), path, raw))
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		if baseRes == nil {
			base, baseRes = got, res
			if base == 0 {
				t.Fatal("degenerate Q6 (zero revenue)")
			}
			continue
		}
		if math.Abs(got-base) > 1e-9*math.Max(1, math.Abs(base)) {
			t.Fatalf("%s: revenue %.6f, inline %.6f", cfg.name, got, base)
		}
		requireSameRun(t, cfg.name, baseRes, res)
	}
}

func TestStreamingIngestMetrics(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 9})
	path := writeTemp(t, "zillow.csv", raw)
	c := tuplex.NewContext(tuplex.WithChunkSize(8 << 10))
	res, err := Zillow(c.CSV(path)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got := m.Ingest.BytesRead; got != int64(len(raw)) {
		t.Fatalf("BytesRead = %d, want %d", got, len(raw))
	}
	if m.Ingest.RecordsSplit == 0 {
		t.Fatal("RecordsSplit not counted")
	}
	if len(m.Stages) == 0 {
		t.Fatal("no per-stage ingest figures")
	}
	if m.Stages[0].Bytes != int64(len(raw)) || m.Stages[0].Records == 0 {
		t.Fatalf("stage0 ingest = %+v", m.Stages[0])
	}
	if m.Stages[0].RowsPerSec() <= 0 || m.Stages[0].MBPerSec() <= 0 {
		t.Fatalf("stage0 throughput = %+v", m.Stages[0])
	}
}

// parseSlowRecords sums the parse_slow_records attribute of a run's
// execute spans; ok reports that some span carried it.
func parseSlowRecords(t *testing.T, res *tuplex.Result) (n int64, ok bool) {
	t.Helper()
	var walk func(s *tuplex.Span)
	walk = func(s *tuplex.Span) {
		for _, a := range s.Attrs {
			if s.Name == "execute" && a.Key == "parse_slow_records" {
				v, err := strconv.ParseInt(a.Val, 10, 64)
				if err != nil {
					t.Fatalf("parse_slow_records = %q", a.Val)
				}
				n, ok = n+v, true
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(res.Trace.Root)
	return n, ok
}

// TestStreamingParseSlowRecords pins when the chunk parser leaves its
// fast path: never on the generated paper inputs, whose quotes all open
// cells (Zillow's prices, flights' city names), and once per record on a
// file whose quotes sit inside cells.
func TestStreamingParseSlowRecords(t *testing.T) {
	c := tuplex.NewContext(tuplex.WithChunkSize(64 << 10))
	zillow, err := Zillow(c.CSV(writeTemp(t, "zillow.csv", data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 3, DirtyFraction: 0.02})))).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	flights, err := Flights(flightsFiles(c,
		writeTemp(t, "perf.csv", data.Flights(data.FlightsConfig{Rows: 2000, Seed: 3})),
		writeTemp(t, "carriers.csv", data.Carriers()),
		writeTemp(t, "airports.txt", data.Airports()))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	_, q6, err := Q6(c.CSV(writeTemp(t, "lineitem.csv", data.TPCHLineitem(data.TPCHConfig{Rows: 5000, Seed: 3}))))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*tuplex.Result{"zillow": zillow, "flights": flights, "q6": q6} {
		if n, ok := parseSlowRecords(t, res); !ok || n != 0 {
			t.Errorf("%s: parse_slow_records = %d (reported %v), want 0", name, n, ok)
		}
	}

	var sb strings.Builder
	sb.WriteString("id,size\n")
	for i := range 100 {
		if i%10 == 0 {
			fmt.Fprintf(&sb, "%d,%d\" screen\n%d,tall\"\n", i, i, i+1)
		} else {
			fmt.Fprintf(&sb, "%d,\"%d in\"\n", i, i)
		}
	}
	res, err := c.CSV(writeTemp(t, "quotes.csv", []byte(sb.String()))).
		Map(tuplex.UDF("lambda x: x['id'] + 1")).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseSlowRecords(t, res); n != 10 {
		t.Errorf("mid-cell quotes: parse_slow_records = %d, want 10", n)
	}
}

// executeTasks counts the task timings on a run's execute spans.
func executeTasks(s *tuplex.Span) int {
	n := 0
	if s.Name == "execute" {
		n = len(s.Tasks)
	}
	for _, c := range s.Children {
		n += executeTasks(c)
	}
	return n
}

// TestInlineSourceRunsInParallel: inline data is chunked like a file,
// with the chunk size derived from its length, so a few hundred KB of
// wide records spreads over several tasks instead of one partition.
func TestInlineSourceRunsInParallel(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 1000, Seed: 4})
	if len(raw) < 150<<10 {
		t.Fatalf("input is %d bytes; the test wants ~200 KB", len(raw))
	}
	c := tuplex.NewContext(tuplex.WithExecutors(4))
	res, err := Zillow(c.CSV("", tuplex.CSVData(raw))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n := executeTasks(res.Trace.Root); n < 2 {
		t.Fatalf("%d-byte inline source ran as %d task(s), want >= 2", len(raw), n)
	}
}

// TestInlineSourceIngestMetrics: inline bytes count as ingest exactly
// like a file's.
func TestInlineSourceIngestMetrics(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 9})
	res, err := Zillow(tuplex.NewContext().CSV("", tuplex.CSVData(raw))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Ingest.BytesRead; got != int64(len(raw)) {
		t.Fatalf("BytesRead = %d, want %d", got, len(raw))
	}
	if res.Metrics.Ingest.RecordsSplit == 0 {
		t.Fatal("RecordsSplit not counted")
	}
}

// TestSmallFileSmallChunk: a 2 KB file takes a chunk buffer sized to
// the file (the 64 KiB floor), not the 16 MiB cap.
func TestSmallFileSmallChunk(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id,name\n")
	for i := 0; sb.Len() < 2<<10; i++ {
		fmt.Fprintf(&sb, "%d,name-%d\n", i, i)
	}
	path := writeTemp(t, "small.csv", []byte(sb.String()))
	run := func() {
		res, err := tuplex.NewContext().CSV(path).Map(tuplex.UDF("lambda x: x['id'] + 1")).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("no rows")
		}
	}
	run() // one-time initialization stays out of the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("a 2 KB file's run allocated %d bytes, want < 4 MiB", alloc)
	}
}
