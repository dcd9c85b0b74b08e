package tuplex_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// Every stage runs on the batch plane: CSV, text and Parallelize sources,
// interior stages (after Unique or Cache, and all but the first stage
// under WithStageFusion(false)) and join build sides. These tests hold
// interior stages and text sources to the fallback-only reference
// (WithFallbackOnly), and pin that every stage of a default run runs
// batched.

// planeDiff runs build's pipeline at 1–4 executors into Collect and
// ToCSV, as compiled and with every row on the fallback, and requires
// the same rows (cell for cell, Go type included), the same CSV bytes,
// and per sink the accounting requireSameRun compares.
func planeDiff(t *testing.T, name string, build func(c *tuplex.Context) *tuplex.DataSet, opts ...tuplex.Option) {
	t.Helper()
	for ex := 1; ex <= 4; ex++ {
		ctx := func(ref bool) *tuplex.Context {
			return tuplex.NewContext(append([]tuplex.Option{tuplex.WithExecutors(ex), tuplex.WithFallbackOnly(ref),
				tuplex.WithTracing(tuplex.TraceSamples)}, opts...)...)
		}
		label := fmt.Sprintf("%s/executors=%d", name, ex)
		got, err := build(ctx(false)).Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", label, err)
		}
		want, err := build(ctx(true)).Collect()
		if err != nil {
			t.Fatalf("%s: reference collect: %v", label, err)
		}
		if len(got.Rows) == 0 || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), len(want.Rows))
		}
		for i, row := range got.Rows {
			if !sameRow(row, want.Rows[i]) {
				t.Fatalf("%s: row %d\n  compiled  %s\n  reference %s", label, i, typedRow(row), typedRow(want.Rows[i]))
			}
		}
		requireSameRun(t, label+"/collect", want, got)

		gotCSV, err := build(ctx(false)).ToCSV("")
		if err != nil {
			t.Fatalf("%s: tocsv: %v", label, err)
		}
		wantCSV, err := build(ctx(true)).ToCSV("")
		if err != nil {
			t.Fatalf("%s: reference tocsv: %v", label, err)
		}
		if string(gotCSV.CSV) != string(wantCSV.CSV) {
			t.Fatalf("%s: CSV differs:\n  compiled  %.300q\n  reference %.300q", label, gotCSV.CSV, wantCSV.CSV)
		}
		requireSameRun(t, label+"/tocsv", wantCSV, gotCSV)
	}
}

// interiorCSV is 6000 rows of k (an int, a string now and then: a
// classifier reject), v and s, with 920 distinct rows.
func interiorCSV() []byte {
	var sb strings.Builder
	sb.WriteString("k,v,s\n")
	for i := range 6000 {
		k := strconv.Itoa(i % 40)
		if i%997 == 13 {
			k = fmt.Sprintf("x%d", i)
		}
		fmt.Fprintf(&sb, "%s,%d,s%d\n", k, i%23, i%5)
	}
	return []byte(sb.String())
}

// afterBarrier continues past an interior stage boundary with the
// operators whose kernels the interior stage now runs: a withColumn that
// raises (ZeroDivisionError for v == 7, resolved for half of the rows),
// a filter and a join against a build side that misses some keys.
func afterBarrier(c *tuplex.Context, ds *tuplex.DataSet) *tuplex.DataSet {
	names := make([][]any, 30)
	for i := range names {
		names[i] = []any{int64(i), fmt.Sprintf("n%d", i)}
	}
	return ds.
		WithColumn("w", tuplex.UDF("lambda x: 100 // (x['v'] - 7)")).
		Resolve(tuplex.ZeroDivisionError, tuplex.UDF("lambda x: -1 if x['s'] < 's3' else 100 // 0")).
		Filter(tuplex.UDF("lambda x: x['w'] != 4")).
		Join(c.Parallelize(names, []string{"k", "name"}), "k", "k")
}

func TestPlaneDiffAfterUnique(t *testing.T) {
	raw := interiorCSV()
	planeDiff(t, "unique", func(c *tuplex.Context) *tuplex.DataSet {
		return afterBarrier(c, c.CSV("", tuplex.CSVData(raw)).Unique())
	}, tuplex.WithChunkSize(8<<10))
}

func TestPlaneDiffAfterCache(t *testing.T) {
	raw := interiorCSV()
	planeDiff(t, "cache", func(c *tuplex.Context) *tuplex.DataSet {
		return afterBarrier(c, c.CSV("", tuplex.CSVData(raw)).Cache())
	}, tuplex.WithChunkSize(8<<10))
}

// TestResolverReadsItsOwnColumns: a resolver reads a column (s) that the
// operator it resolves does not; it gets its own columns of the
// operator's input row, before and after a Cache barrier, compiled and
// with every row on the fallback.
func TestResolverReadsItsOwnColumns(t *testing.T) {
	raw := []byte("k,v,s\n1,7,s1\n2,3,s4\n3,7,s5\n")
	want := [][]any{{int64(1), int64(7), "s1", int64(-1)}, {int64(2), int64(3), "s4", int64(-25)}, {int64(3), int64(7), "s5", int64(0)}}
	for _, cache := range []bool{false, true} {
		for _, ref := range []bool{false, true} {
			ds := tuplex.NewContext(tuplex.WithFallbackOnly(ref)).CSV("", tuplex.CSVData(raw))
			if cache {
				ds = ds.Cache()
			}
			res, err := ds.
				WithColumn("w", tuplex.UDF("lambda x: 100 // (x['v'] - 7)")).
				Resolve(tuplex.ZeroDivisionError, tuplex.UDF("lambda x: -1 if x['s'] < 's3' else 0")).
				Collect()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failed) != 0 || fmt.Sprint(res.Rows) != fmt.Sprint(want) {
				t.Fatalf("cache=%v fallback only=%v: rows %v, failed %v; want %v", cache, ref, res.Rows, res.Failed, want)
			}
		}
	}
}

// TestPlaneDiffZillowUnfused: with stage fusion off every UDF operator
// ends its stage, so all but the first of Zillow's stages are interior
// stages, and dirty rows raise in several of them.
func TestPlaneDiffZillowUnfused(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 1500, Seed: 11, DirtyFraction: 0.05})
	planeDiff(t, "zillow-unfused", func(c *tuplex.Context) *tuplex.DataSet {
		return pipelines.Zillow(c.CSV("", tuplex.CSVData(raw)))
	}, tuplex.WithStageFusion(false))
}

// TestPlaneDiffText: a text file, read in chunks of 4 KiB (many chunks
// and batch seams), 64 KiB and 1 MiB (one chunk), with CRLF and empty
// lines; a withColumn raises ValueError on some lines, which a resolver
// takes, and a join against a CSV build side follows.
func TestPlaneDiffText(t *testing.T) {
	var sb strings.Builder
	for i := range 5000 {
		n := strconv.Itoa(i * 37)
		switch {
		case i%9 == 4:
			n = "n/a"
		case i%500 == 7:
			sb.WriteString("\n")
		}
		eol := "\n"
		if i%11 == 0 {
			eol = "\r\n"
		}
		fmt.Fprintf(&sb, "line %d,%s%s", i%60, n, eol)
	}
	path := writeTemp(t, "lines.txt", []byte(sb.String()))
	var build strings.Builder
	build.WriteString("key,label\n")
	for i := range 50 {
		fmt.Fprintf(&build, "line %d,L%d\n", i, i)
	}
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		planeDiff(t, fmt.Sprintf("text/chunk=%d", size), func(c *tuplex.Context) *tuplex.DataSet {
			return c.Text(path).
				WithColumn("key", tuplex.UDF("lambda x: x['value'].split(',')[0]")).
				WithColumn("n", tuplex.UDF("lambda x: int(x['value'].split(',')[1])")).
				Resolve(tuplex.ValueError, tuplex.UDF("lambda x: -1")).
				Filter(tuplex.UDF("lambda x: x['n'] % 3 != 1")).
				Join(c.CSV("", tuplex.CSVData([]byte(build.String()))), "key", "key")
		}, tuplex.WithChunkSize(size))
	}
}

// TestDefaultPlaneRunsEveryStageBatched: with default options every
// stage of every source kind — CSV, text, Parallelize, interior stages
// and join build sides — runs its normal path on the batch plane, so
// each stage's execute span reports the rows its kernels finished
// (columnar_rows).
func TestDefaultPlaneRunsEveryStageBatched(t *testing.T) {
	csvRaw := interiorCSV()
	text := []byte(strings.Repeat("a,1\nb,2\nc,3\n", 500))
	slots := make([][]any, 3000)
	for i := range slots {
		slots[i] = []any{int64(i % 40), fmt.Sprintf("p%d", i)}
	}
	pipelinesByKind := map[string]func(c *tuplex.Context) *tuplex.DataSet{
		"csv": func(c *tuplex.Context) *tuplex.DataSet {
			return c.CSV("", tuplex.CSVData(csvRaw)).WithColumn("w", tuplex.UDF("lambda x: x['v'] + 1"))
		},
		"text": func(c *tuplex.Context) *tuplex.DataSet {
			return c.Text("", tuplex.TextData(text)).Map(tuplex.UDF("lambda x: x.split(',')[0]"))
		},
		"parallelize": func(c *tuplex.Context) *tuplex.DataSet {
			return c.Parallelize(slots, []string{"k", "p"}).Filter(tuplex.UDF("lambda x: x['k'] > 3"))
		},
		"interior-unique": func(c *tuplex.Context) *tuplex.DataSet {
			return c.CSV("", tuplex.CSVData(csvRaw)).Unique().WithColumn("w", tuplex.UDF("lambda x: x['v'] * 2"))
		},
		"interior-cache": func(c *tuplex.Context) *tuplex.DataSet {
			return c.Parallelize(slots, []string{"k", "p"}).Cache().Filter(tuplex.UDF("lambda x: x['k'] != 5"))
		},
		"interior-unfused": func(c *tuplex.Context) *tuplex.DataSet {
			return c.CSV("", tuplex.CSVData(csvRaw)).
				WithColumn("w", tuplex.UDF("lambda x: x['v'] + 1")).
				Filter(tuplex.UDF("lambda x: x['w'] > 2")).
				MapColumn("s", tuplex.UDF("lambda s: s.upper()"))
		},
		"join-builds": func(c *tuplex.Context) *tuplex.DataSet {
			return c.Parallelize(slots, []string{"k", "p"}).
				Join(c.CSV("", tuplex.CSVData(csvRaw)).Unique(), "k", "k").
				Join(c.Text("", tuplex.TextData(text)).Map(tuplex.UDF("lambda x: {'p': 'p' + x.split(',')[1], 't': x}")), "p", "p").
				Join(c.Parallelize(slots[:100], []string{"k2", "p2"}), "p", "p2")
		},
	}
	for kind, build := range pipelinesByKind {
		var opts []tuplex.Option
		if kind == "interior-unfused" {
			opts = append(opts, tuplex.WithStageFusion(false))
		}
		res, err := build(tuplex.NewContext(opts...)).Collect()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		stages := stageSpans(res.Trace.Root)
		if len(stages) < 2 && strings.HasPrefix(kind, "interior") {
			t.Fatalf("%s: %d stages, want an interior stage", kind, len(stages))
		}
		for i, st := range stages {
			batched := false
			for _, ch := range st.Children {
				for _, a := range ch.Attrs {
					if ch.Name == "execute" && a.Key == "columnar_rows" && a.Val != "0" {
						batched = true
					}
				}
			}
			if !batched {
				t.Errorf("%s: stage %d of %d did not run batched", kind, i, len(stages))
			}
		}
	}
}
