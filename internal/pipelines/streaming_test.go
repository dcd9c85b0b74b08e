package pipelines

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
)

// The streamed ingest path must be observationally identical to the
// materialized one: same rows, same order, same rendered CSV (including
// exception-row splicing), same row counters, failed rows, exception
// samples in pool order and routing ledger. Each Appendix-A pipeline
// runs over on-disk files materialized and streamed at chunk sizes from
// 4 KiB (many record-boundary and batch seams per file) to the default
// 16 MiB (the whole file one chunk), on one and several executors, and
// all must agree.

func writeTemp(t *testing.T, name string, b []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

var ingestConfigs = []struct {
	name string
	opts []tuplex.Option
}{
	{"materialized", []tuplex.Option{tuplex.WithStreamingIngest(false)}},
	{"streamed-4k", []tuplex.Option{tuplex.WithChunkSize(4 << 10)}},
	{"streamed-1x", []tuplex.Option{tuplex.WithChunkSize(8 << 10)}},
	{"streamed-4x", []tuplex.Option{tuplex.WithChunkSize(8 << 10), tuplex.WithExecutors(4)}},
	{"streamed-64k", []tuplex.Option{tuplex.WithChunkSize(64 << 10), tuplex.WithExecutors(2)}},
	{"streamed-1m", []tuplex.Option{tuplex.WithChunkSize(1 << 20)}},
	{"streamed-16m", nil},
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
		t.Fatalf("%s: row counters %+v, materialized %+v", name, got.Metrics.Rows, base.Metrics.Rows)
	}
	if !reflect.DeepEqual(got.Failed, base.Failed) {
		t.Fatalf("%s: failed rows %v, materialized %v", name, got.Failed, base.Failed)
	}
	g, w := stageSpans(got.Trace.Root), stageSpans(base.Trace.Root)
	if len(g) != len(w) {
		t.Fatalf("%s: %d stages, materialized %d", name, len(g), len(w))
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
		t.Fatalf("%s: %d rows, materialized %d", name, len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("%s: row %d differs:\n  got  %s\n  want %s", name, i, got[i], base[i])
		}
	}
}

// requireReadOnce asserts a run's ingest equals the total size of the
// sources its plan names: every file is read exactly once per run,
// whether the run streams or materializes it (sampling reuses the prefix
// the source binding already holds).
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
		res, err := Zillow(ingestCtx(cfg.opts).CSV(path)).Collect()
		if err != nil {
			t.Fatalf("%s collect: %v", cfg.name, err)
		}
		csvRes, err := Zillow(ingestCtx(cfg.opts).CSV(path)).ToCSV("")
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
			t.Fatalf("%s: rendered CSV differs from materialized", cfg.name)
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
		res, err := Flights(flightsFiles(ingestCtx(cfg.opts), perfPath, carriersPath, airportsPath)).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		// The airports file backs two sources (origin and destination).
		requireReadOnce(t, cfg.name, res.Metrics, len(fileA), len(fileB),
			len(data.Carriers()), len(data.Airports()), len(data.Airports()))
		rows := rowStrings(res.Rows)
		if base == nil {
			base, baseRes = rows, res
			if len(base) == 0 {
				t.Fatal("materialized run produced no rows")
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
		res, err := Weblogs(c.Text(logsPath), c.CSV(badPath), WeblogStrip).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(logs), len(bad))
		rows := normalize(res.Rows)
		if base == nil {
			base = rows
			if len(base) == 0 {
				t.Fatal("materialized run produced no rows")
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
		res, err := ThreeOneOne(ingestCtx(cfg.opts).CSV(path)).Collect()
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
		got, res, err := Q6(ingestCtx(cfg.opts).CSV(path))
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
			t.Fatalf("%s: revenue %.6f, materialized %.6f", cfg.name, got, base)
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
