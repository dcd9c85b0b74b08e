package tuplex_test

import (
	"fmt"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// TestDifferentialTuplexVsInterpreter is the repo's strongest dual-mode
// invariant check (§4.1): for UDFs drawn from a grammar and data with
// injected dirt, the compiled dual-mode engine must produce exactly the
// rows the fully-interpreted black-box engine produces — same values,
// same surviving rows — with failures allowed only where both sides fail.
func TestDifferentialTuplexVsInterpreter(t *testing.T) {
	rng := pyre.NewPRNG(0xd1ff)

	intExprs := []string{
		"x['i'] + 1", "x['i'] * 3 - x['j']", "x['i'] // (x['j'] + 1)",
		"x['i'] % 7", "abs(x['i'] - x['j'])", "min(x['i'], x['j'])",
		"max(x['i'], 5)", "x['i'] ** 2", "len(x['s']) + x['i']",
	}
	floatExprs := []string{
		"x['i'] / (x['j'] + 1)", "x['f'] * 1.609", "x['f'] + x['i']",
		"x['f'] ** 2", "x['f'] - 0.5",
	}
	strExprs := []string{
		"x['s'].upper()", "x['s'][1:]", "x['s'].replace('a', 'b')",
		"x['s'] + '!'", "x['s'].strip()", "x['s'][0] if x['s'] else ''",
		"str(x['i']) + x['s']", "x['s'].split('a')[0]",
		"'%04d' % x['i']", "x['s'].lower().capitalize()",
	}
	boolExprs := []string{
		"x['i'] > x['j']", "0 < x['i'] <= 50", "'a' in x['s']",
		"x['s'].startswith('v')", "x['i'] % 2 == 0 and x['f'] > 1.0",
		"not x['s']", "x['i'] == x['j'] or len(x['s']) > 3",
	}

	mkCSV := func(rows int) string {
		var sb strings.Builder
		sb.WriteString("i,j,s,f\n")
		for n := range rows {
			s := fmt.Sprintf("v%da", n%17)
			if rng.Intn(20) == 0 {
				s = "" // empty strings exercise IndexError paths
			}
			i := rng.Intn(100)
			j := rng.Intn(10) // occasionally 0: division exceptions
			if rng.Intn(25) == 0 {
				// dirty cell in a numeric column
				fmt.Fprintf(&sb, "oops,%d,%s,%d.5\n", j, s, i)
				continue
			}
			fmt.Fprintf(&sb, "%d,%d,%s,%d.5\n", i, j, s, i)
		}
		return sb.String()
	}

	pick := func(list []string) string { return list[rng.Intn(len(list))] }

	for trial := range 25 {
		csv := mkCSV(120)
		with := "lambda x: " + pick(intExprs)
		with2 := "lambda x: " + pick(append(append([]string{}, floatExprs...), strExprs...))
		filter := "lambda x: " + pick(boolExprs)

		// Tuplex dual-mode. Logical rewrites are disabled: filter
		// pushdown may legally drop a row before the UDF that would have
		// raised on it (standard database semantics), which changes
		// which rows fail — this test checks path equivalence, not plan
		// equivalence.
		c := tuplex.NewContext(tuplex.WithSampleSize(15), tuplex.WithLogicalOptimizations(false, false, false))
		res, err := c.CSV("", tuplex.CSVData([]byte(csv))).
			WithColumn("u", tuplex.UDF(with)).
			WithColumn("w", tuplex.UDF(with2)).
			Filter(tuplex.UDF(filter)).
			Collect()
		if err != nil {
			t.Fatalf("trial %d (%s | %s | %s): %v", trial, with, with2, filter, err)
		}

		// Fully interpreted oracle.
		e := blackbox.New(blackbox.Config{Mode: blackbox.ModePython})
		f, err := e.CSV([]byte(csv), true, ',', nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err = e.WithColumnUDF(f, "u", with, nil)
		if err == nil {
			f, err = e.WithColumnUDF(f, "w", with2, nil)
		}
		if err == nil {
			f, err = e.FilterUDF(f, filter, nil)
		}
		if err != nil {
			// The oracle raises on the first bad row; Tuplex must have
			// reported failures instead of producing more rows than the
			// clean subset. Skip exact comparison for this trial.
			if len(res.Failed) == 0 {
				t.Fatalf("trial %d: oracle raised (%v) but tuplex reported no failures", trial, err)
			}
			continue
		}

		// Both engines processed every row: outputs must match exactly,
		// except rows tuplex reported as failed (the oracle produced
		// them only because blackbox has no failure concept for
		// mid-pipeline errors — it would have errored; err==nil means no
		// row failed anywhere).
		if len(res.Failed) > 0 {
			t.Fatalf("trial %d: tuplex failed %d rows but oracle succeeded: %v",
				trial, len(res.Failed), res.Failed[0])
		}
		if len(res.Rows) != len(f.Rows) {
			t.Fatalf("trial %d (%s | %s | %s): tuplex %d rows, oracle %d",
				trial, with, with2, filter, len(res.Rows), len(f.Rows))
		}
		for i := range res.Rows {
			got := fmt.Sprint(res.Rows[i])
			want := fmt.Sprint(unboxOracleRow(f.Rows[i]))
			if got != want {
				t.Fatalf("trial %d row %d:\n tuplex %s\n oracle %s\n udfs: %s | %s | %s",
					trial, i, got, want, with, with2, filter)
			}
		}
	}
}

func unboxOracleRow(r []pyvalue.Value) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v := v.(type) {
		case pyvalue.None:
			out[i] = nil
		case pyvalue.Bool:
			out[i] = bool(v)
		case pyvalue.Int:
			out[i] = int64(v)
		case pyvalue.Float:
			out[i] = float64(v)
		case pyvalue.Str:
			out[i] = string(v)
		default:
			out[i] = pyvalue.Repr(v)
		}
	}
	return out
}

// TestOptimizedVsUnoptimizedDifferential pins the soundness contract of
// the dataflow-driven compiler optimizations: with
// WithCompilerOptimizations toggled, every pipeline must produce
// byte-identical outputs and identical failed/ignored accounting. The
// UDFs are chosen to trip each mechanism — sample-derived dead
// branches, constant conditions, constant-column folding, and division
// by a column that is only *mostly* non-zero (so a seeded non-zero
// range must be guarded, not trusted).
func TestOptimizedVsUnoptimizedDifferential(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("i,j,flag,tag\n")
	rng := pyre.NewPRNG(0xabcdef)
	for n := range 400 {
		j := rng.Intn(9) // 0..8, zeros appear
		if n < 250 {
			j = 1 + rng.Intn(8) // the sampled prefix sees no zero
		}
		fmt.Fprintf(&csv, "%d,%d,%d,const\n", rng.Intn(100), j, rng.Intn(10))
	}
	data := []byte(csv.String())

	type pipe struct {
		name  string
		build func(c *tuplex.Context) *tuplex.DataSet
	}
	pipes := []pipe{
		{"dead-branch", func(c *tuplex.Context) *tuplex.DataSet {
			// flag is sampled in [0,9]: the then-arm is dead under the
			// seeded interval and prunable (with a range guard).
			return c.CSV("", tuplex.CSVData(data)).
				WithColumn("v", tuplex.UDF("lambda x: x['i'] * 1000 if x['flag'] > 100 else x['i'] + 1"))
		}},
		{"constant-condition", func(c *tuplex.Context) *tuplex.DataSet {
			// tag is constant across the sample: the comparison folds.
			return c.CSV("", tuplex.CSVData(data)).
				WithColumn("v", tuplex.UDF("lambda x: 1 if x['tag'] == 'const' else 0"))
		}},
		{"div-possibly-zero", func(c *tuplex.Context) *tuplex.DataSet {
			// The sampled prefix sees only non-zero j, so the optimizer
			// elides the zero check under a guard; later zero rows must
			// bounce to the general path and then hit the resolver.
			return c.CSV("", tuplex.CSVData(data)).
				WithColumn("v", tuplex.UDF("lambda x: x['i'] // x['j']")).
				Resolve(tuplex.ZeroDivisionError, tuplex.UDF("lambda x: -1"))
		}},
		{"div-ignored", func(c *tuplex.Context) *tuplex.DataSet {
			return c.CSV("", tuplex.CSVData(data)).
				WithColumn("v", tuplex.UDF("lambda x: x['i'] % x['j']")).
				Ignore(tuplex.ZeroDivisionError)
		}},
		{"always-raises-branch", func(c *tuplex.Context) *tuplex.DataSet {
			return c.CSV("", tuplex.CSVData(data)).
				WithColumn("v", tuplex.UDF("lambda x: x['i'] // 0 if x['flag'] > 100 else x['i']"))
		}},
	}

	for _, p := range pipes {
		run := func(opt bool) *tuplex.Result {
			c := tuplex.NewContext(tuplex.WithCompilerOptimizations(opt), tuplex.WithSampleSize(100))
			res, err := p.build(c).Collect()
			if err != nil {
				t.Fatalf("%s (opt=%v): %v", p.name, opt, err)
			}
			return res
		}
		on, off := run(true), run(false)
		if len(on.Rows) != len(off.Rows) {
			t.Fatalf("%s: optimized %d rows, unoptimized %d", p.name, len(on.Rows), len(off.Rows))
		}
		for i := range on.Rows {
			if fmt.Sprint(on.Rows[i]) != fmt.Sprint(off.Rows[i]) {
				t.Fatalf("%s row %d: optimized %v, unoptimized %v", p.name, i, on.Rows[i], off.Rows[i])
			}
		}
		cOn, cOff := on.Metrics.Rows, off.Metrics.Rows
		if cOn.Failed != cOff.Failed || cOn.Ignored != cOff.Ignored || cOn.Output != cOff.Output {
			t.Fatalf("%s: accounting differs: opt failed=%d ignored=%d output=%d, unopt failed=%d ignored=%d output=%d",
				p.name, cOn.Failed, cOn.Ignored, cOn.Output, cOff.Failed, cOff.Ignored, cOff.Output)
		}
		if len(on.Failed) != len(off.Failed) {
			t.Fatalf("%s: failed rows differ: %d vs %d", p.name, len(on.Failed), len(off.Failed))
		}
	}
}
