package pipelines

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
)

// The streamed ingest path must be observationally identical to the
// materialized one: same rows, same order, same rendered CSV (including
// exception-row splicing). Each Appendix-A pipeline runs under three
// ingest configurations over on-disk files — materialized, streamed with
// tiny chunks (forcing many record-boundary seams), and streamed with
// tiny chunks across several executors — and all must agree byte for
// byte.

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
	{"streamed-1x", []tuplex.Option{tuplex.WithChunkSize(8 << 10)}},
	{"streamed-4x", []tuplex.Option{tuplex.WithChunkSize(8 << 10), tuplex.WithExecutors(4)}},
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
	var baseRows []string
	var baseCSV []byte
	for _, cfg := range ingestConfigs {
		c := tuplex.NewContext(cfg.opts...)
		res, err := Zillow(c.CSV(path)).Collect()
		if err != nil {
			t.Fatalf("%s collect: %v", cfg.name, err)
		}
		csvRes, err := Zillow(tuplex.NewContext(cfg.opts...).CSV(path)).ToCSV("")
		if err != nil {
			t.Fatalf("%s tocsv: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		requireReadOnce(t, cfg.name+" tocsv", csvRes.Metrics, len(raw))
		rows := rowStrings(res.Rows)
		if baseRows == nil {
			baseRows, baseCSV = rows, csvRes.CSV
			continue
		}
		requireSameRows(t, cfg.name, baseRows, rows)
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
	for _, cfg := range ingestConfigs {
		c := tuplex.NewContext(cfg.opts...)
		in := FlightsInputs{
			Perf:     c.CSV(perfPath),
			Carriers: c.CSV(carriersPath),
			Airports: c.CSV(airportsPath,
				tuplex.CSVHeader(false),
				tuplex.CSVDelimiter(':'),
				tuplex.CSVColumns(data.AirportColumns...),
				tuplex.CSVNullValues("", "N/a", "N/A")),
		}
		res, err := Flights(in).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		// The airports file backs two sources (origin and destination).
		requireReadOnce(t, cfg.name, res.Metrics, len(fileA), len(fileB),
			len(data.Carriers()), len(data.Airports()), len(data.Airports()))
		rows := rowStrings(res.Rows)
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
	for _, cfg := range ingestConfigs {
		c := tuplex.NewContext(cfg.opts...)
		res, err := ThreeOneOne(c.CSV(path)).Collect()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		// Unique terminal: first-occurrence order must be preserved by
		// the streamed keys, so exact sequence equality is required.
		rows := rowStrings(res.Rows)
		if base == nil {
			base = rows
			continue
		}
		requireSameRows(t, cfg.name, base, rows)
	}
}

func TestStreamingQ6MatchesMaterialized(t *testing.T) {
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 20000, Seed: 31})
	path := writeTemp(t, "lineitem.csv", raw)
	var base float64
	haveBase := false
	for _, cfg := range ingestConfigs {
		c := tuplex.NewContext(cfg.opts...)
		got, res, err := Q6(c.CSV(path))
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		requireReadOnce(t, cfg.name, res.Metrics, len(raw))
		if !haveBase {
			base, haveBase = got, true
			if base == 0 {
				t.Fatal("degenerate Q6 (zero revenue)")
			}
			continue
		}
		if math.Abs(got-base) > 1e-9*math.Max(1, math.Abs(base)) {
			t.Fatalf("%s: revenue %.6f, materialized %.6f", cfg.name, got, base)
		}
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
