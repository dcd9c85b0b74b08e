package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// Ingest measures chunked ingest end to end: the Zillow pipeline over
// an on-disk CSV (so file I/O is on the measured path), at one executor
// and at full parallelism. Chunked ingest overlaps disk reads, record
// splitting, parsing and UDF execution (§4.4); the chunk count follows
// the file size and the executor count.
func Ingest(scale Scale, w io.Writer) (*Experiment, error) {
	e := &Experiment{ID: "Ingest", Title: "Chunked ingest (on-disk Zillow → CSV)"}
	raw := data.Zillow(data.ZillowConfig{Rows: scale.ZillowRows, Seed: 2})
	dir, err := os.MkdirTemp("", "tuplex-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "zillow.csv")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}

	run := func(system string, opts ...tuplex.Option) error {
		var m *tuplex.Metrics
		var last *tuplex.Result
		opts = append(opts, scale.traceOpts()...)
		secs, err := timeIt(scale.Repeats, func() error {
			c := tuplex.NewContext(opts...)
			res, err := pipelines.Zillow(c.CSV(path)).ToCSV("")
			if err == nil {
				m = res.Metrics
				last = res
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", system, err)
		}
		note := ""
		if m != nil && len(m.Stages) > 0 {
			s := m.Stages[0]
			note = fmt.Sprintf("%.0f rows/s, %.1f MB/s", s.RowsPerSec(), s.MBPerSec())
		}
		e.Rows = append(e.Rows, Row{System: system, Seconds: secs, Note: note})
		saveTrace(scale, "ingest-"+system, last, w)
		return nil
	}

	p := scale.Parallelism
	one, par := "1 executor", fmt.Sprintf("%d executors", p)
	if err := run(one, tuplex.WithExecutors(1)); err != nil {
		return nil, err
	}
	if err := run(par, tuplex.WithExecutors(p)); err != nil {
		return nil, err
	}
	e.Notes = append(e.Notes,
		fmt.Sprintf("input %s on disk; %.2fx at %d executors", mbOf(len(raw)), e.Speedup(one, par), p))
	e.Print(w)
	return e, nil
}
