package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Full-scale input sizes: each makes one job take about a second on two
// cores.
const (
	zillowRows  = 300_000
	flightsRows = 150_000
	prefixRows  = 5_000 // flights rows checked one by one against the interpreter
	q6Rows      = 3_000_000
)

func scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 40)
}

// runner is a workload opened in the measured process.
type runner struct {
	// clients is the number of closed-loop callers: each sends its next
	// job only after the previous one answered.
	clients int
	// op runs job i for client c and checks its output. The returned
	// latency covers the terminal call or the Submit call only, never
	// the check.
	op func(c, i int) (time.Duration, error)
	// freshHeap starts every job from a collected heap, as a process
	// that runs one batch job would (the collection is not timed).
	freshHeap bool
	// plan returns the wire bytes of the plan the layer probes take
	// apart; j counts probe repetitions.
	plan func(j int) ([]byte, error)
	// input is the CSV file the csvio probes scan; "" when the workload
	// reads none.
	input string
	// cached says the server answers from its plan cache, so the
	// in-process equivalent of a submission is Execute, not compile.
	cached bool
	// serviceStats reads the server's counters (serve workloads).
	serviceStats func() (hits, evictions, rejected int64)
	// finish runs the checks that need every pass to be over.
	finish func() error
	close  func()
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// planBytes renders a plan the way Client.Submit puts it on the wire.
func planBytes(p *tuplex.Plan, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// closedAccounting checks that every input row is accounted for by
// exactly one path and that none failed.
func closedAccounting(r tuplex.RowCounts) error {
	left := r.ClassifierRejects + r.NormalPathExceptions
	if r.Input != r.Normal+left {
		return fmt.Errorf("row accounting open: input %d != normal %d + off-path %d", r.Input, r.Normal, left)
	}
	if handled := r.GeneralResolved + r.FallbackResolved + r.ResolverResolved + r.Ignored + r.Failed; left != handled {
		return fmt.Errorf("row accounting open: %d rows left the normal path, %d handled", left, handled)
	}
	if r.Failed != 0 {
		return fmt.Errorf("%d rows failed", r.Failed)
	}
	return nil
}

// ---- zillow.clean ----

type zillowOracle struct {
	SHA256 string `json:"sha256"`
	Rows   int    `json:"rows"`
}

func setupZillow(dir string, seed uint64, scale float64) ([]string, error) {
	raw := data.Zillow(data.ZillowConfig{Rows: scaled(zillowRows, scale), Seed: seed})
	in := filepath.Join(dir, "zillow.csv")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		return nil, err
	}
	want := handopt.ZillowCSV(raw)
	sum := sha256.Sum256(want)
	err := writeJSON(filepath.Join(dir, "oracle.json"),
		zillowOracle{SHA256: hex.EncodeToString(sum[:]), Rows: bytes.Count(want, []byte{'\n'}) - 1})
	return []string{in}, err
}

func openZillow(dir string, _ uint64, procs int) (*runner, error) {
	var want zillowOracle
	if err := readJSON(filepath.Join(dir, "oracle.json"), &want); err != nil {
		return nil, err
	}
	in, out := filepath.Join(dir, "zillow.csv"), filepath.Join(dir, "out.csv")
	build := func() *tuplex.DataSet {
		return pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(procs)).CSV(in))
	}
	return &runner{
		clients: 1,
		op: func(_, _ int) (time.Duration, error) {
			ds := build()
			t0 := time.Now()
			res, err := ds.ToCSV(out)
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			if err := closedAccounting(res.Metrics.Rows); err != nil {
				return d, err
			}
			got, err := fileSHA256(out)
			if err != nil {
				return d, err
			}
			if got != want.SHA256 {
				return d, fmt.Errorf("output differs from handopt.Zillow (%d rows out, oracle %d)", res.Metrics.Rows.Output, want.Rows)
			}
			return d, nil
		},
		freshHeap: true,
		plan: func(int) ([]byte, error) {
			p, err := build().Plan()
			if err != nil {
				return nil, err
			}
			return planBytes(p.WithCSVSink(filepath.Join(dir, "probe.csv")), nil)
		},
		input: in,
	}, nil
}

// ---- q6.scan ----

type q6Oracle struct {
	Revenue float64 `json:"revenue"`
	Rows    int     `json:"rows"`
}

func setupQ6(dir string, seed uint64, scale float64) ([]string, error) {
	n := scaled(q6Rows, scale)
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: n, Seed: seed})
	in := filepath.Join(dir, "lineitem.csv")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		return nil, err
	}
	err := writeJSON(filepath.Join(dir, "oracle.json"),
		q6Oracle{Revenue: handopt.Q6(raw, data.Q6DateLo, data.Q6DateHi), Rows: n})
	return []string{in}, err
}

func openQ6(dir string, _ uint64, procs int) (*runner, error) {
	var want q6Oracle
	if err := readJSON(filepath.Join(dir, "oracle.json"), &want); err != nil {
		return nil, err
	}
	in := filepath.Join(dir, "lineitem.csv")
	source := func() *tuplex.DataSet {
		return tuplex.NewContext(tuplex.WithExecutors(procs)).CSV(in)
	}
	return &runner{
		clients: 1,
		op: func(_, _ int) (time.Duration, error) {
			ds := source()
			t0 := time.Now()
			got, res, err := pipelines.Q6(ds)
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			if err := closedAccounting(res.Metrics.Rows); err != nil {
				return d, err
			}
			if res.Metrics.Rows.Input != int64(want.Rows) {
				return d, fmt.Errorf("read %d rows, file has %d", res.Metrics.Rows.Input, want.Rows)
			}
			if math.Abs(got-want.Revenue) > 1e-9*math.Max(1, math.Abs(want.Revenue)) {
				return d, fmt.Errorf("revenue %.6f, handopt.Q6 says %.6f", got, want.Revenue)
			}
			return d, nil
		},
		freshHeap: true,
		plan: func(int) ([]byte, error) {
			p, err := source().Plan()
			if err != nil {
				return nil, err
			}
			return planBytes(p.WithAggregateSink(pipelines.Q6UDFs()), nil)
		},
		input: in,
	}, nil
}

// ---- flights.dirty ----

func setupFlights(dir string, seed uint64, scale float64) ([]string, error) {
	perf := data.Flights(data.FlightsConfig{Rows: scaled(flightsRows, scale), Seed: seed})
	carriers, airports := data.Carriers(), data.Airports()
	// The prefix is the header plus the first rows; generated records
	// hold no quoted newlines, so a line is a record.
	prefix := perf
	if i := nthIndex(perf, '\n', scaled(prefixRows, scale)+1); i >= 0 {
		prefix = perf[:i+1]
	}
	files := map[string][]byte{
		"flights.csv": perf, "carriers.csv": carriers, "airports.txt": airports, "prefix.csv": prefix,
	}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return nil, err
		}
	}
	frame, err := blackbox.New(blackbox.Config{Mode: blackbox.ModePython}).RunFlights(prefix, carriers, airports)
	if err != nil {
		return nil, fmt.Errorf("flights oracle: %w", err)
	}
	var want strings.Builder
	for _, row := range frame.Rows {
		for j, v := range row {
			if j > 0 {
				want.WriteByte('\t')
			}
			want.WriteString(pyvalue.Repr(v))
		}
		want.WriteByte('\n')
	}
	err = os.WriteFile(filepath.Join(dir, "prefix.want"), []byte(want.String()), 0o644)
	return []string{
		filepath.Join(dir, "flights.csv"), filepath.Join(dir, "carriers.csv"), filepath.Join(dir, "airports.txt"),
	}, err
}

func nthIndex(b []byte, c byte, n int) int {
	at := -1
	for ; n > 0; n-- {
		i := bytes.IndexByte(b[at+1:], c)
		if i < 0 {
			return -1
		}
		at += i + 1
	}
	return at
}

func openFlights(dir string, _ uint64, procs int) (*runner, error) {
	build := func(perf string) *tuplex.DataSet {
		c := tuplex.NewContext(tuplex.WithExecutors(procs))
		return pipelines.Flights(pipelines.FlightsInputs{
			Perf:     c.CSV(filepath.Join(dir, perf)),
			Carriers: c.CSV(filepath.Join(dir, "carriers.csv")),
			Airports: c.CSV(filepath.Join(dir, "airports.txt"),
				tuplex.CSVHeader(false),
				tuplex.CSVDelimiter(':'),
				tuplex.CSVColumns(data.AirportColumns...),
				tuplex.CSVNullValues("", "N/a", "N/A")),
		})
	}
	var firstHash uint64
	var hashed bool
	return &runner{
		clients: 1,
		op: func(_, _ int) (time.Duration, error) {
			ds := build("flights.csv")
			t0 := time.Now()
			res, err := ds.Collect()
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			if err := closedAccounting(res.Metrics.Rows); err != nil {
				return d, err
			}
			if int64(len(res.Rows)) != res.Metrics.Rows.Output {
				return d, fmt.Errorf("collected %d rows, metrics say %d", len(res.Rows), res.Metrics.Rows.Output)
			}
			h := rowSetHash(res.Rows)
			if !hashed {
				firstHash, hashed = h, true
			} else if h != firstHash {
				return d, fmt.Errorf("row-set hash %x differs from the first repetition's %x", h, firstHash)
			}
			return d, nil
		},
		freshHeap: true,
		plan:      func(int) ([]byte, error) { return planBytes(build("flights.csv").Plan()) },
		input:     filepath.Join(dir, "flights.csv"),
		finish: func() error {
			raw, err := os.ReadFile(filepath.Join(dir, "prefix.want"))
			if err != nil {
				return err
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			res, err := build("prefix.csv").Collect()
			if err != nil {
				return err
			}
			if len(res.Rows) != len(want) {
				return fmt.Errorf("prefix: %d rows, interpreter oracle has %d", len(res.Rows), len(want))
			}
			var buf []byte
			for i, row := range res.Rows {
				buf = appendRow(buf[:0], row)
				if string(buf) != want[i] {
					return fmt.Errorf("prefix row %d:\n engine %s\n oracle %s", i, buf, want[i])
				}
			}
			return nil
		},
	}, nil
}

// rowSetHash is order-independent: the sum of the rows' FNV-1a hashes.
func rowSetHash(rows []tuplex.Row) uint64 {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = appendRow(buf[:0], row)
		h := uint64(14695981039346656037)
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		sum += h
	}
	return sum
}

// appendRow renders a collected row like the oracle file: Python reprs
// joined by tabs.
func appendRow(buf []byte, row tuplex.Row) []byte {
	for j, v := range row {
		if j > 0 {
			buf = append(buf, '\t')
		}
		switch v := v.(type) {
		case nil:
			buf = append(buf, "None"...)
		case bool:
			if v {
				buf = append(buf, "True"...)
			} else {
				buf = append(buf, "False"...)
			}
		case int64:
			buf = strconv.AppendInt(buf, v, 10)
		case float64:
			buf = append(buf, pyvalue.FloatRepr(v)...)
		case string:
			buf = append(buf, pyvalue.Repr(pyvalue.Str(v))...)
		default:
			buf = fmt.Append(buf, v)
		}
	}
	return buf
}
