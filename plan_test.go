package tuplex

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updatePlanGolden = flag.Bool("update-plan", false, "rewrite plan golden files")

// fullDataSet chains every DataSet operator (WithGlobal included) on a
// context with non-default options, so the plan codec is exercised over
// the whole API surface.
func fullDataSet() *DataSet {
	c := NewContext(
		WithExecutors(3),
		WithSampleSize(32),
		WithSeed(9),
	)
	build := c.Parallelize([][]any{{"10001", "NY"}, {"10002", "NY"}}, []string{"zip", "state"})
	return c.CSV("", CSVData([]byte("zip,price,beds\n10001,100,2\n10002,250,3\nbad,x,1\n")), CSVHeader(true)).
		WithColumn("price2", UDF("lambda x: int(x['price']) * mult").WithGlobal("mult", 2)).
		Resolve(ValueError, UDF("lambda x: 0")).
		Ignore(TypeError).
		Filter(UDF("lambda x: int(x['beds']) < 10")).
		MapColumn("zip", UDF("lambda z: z.strip()")).
		RenameColumn("beds", "bedrooms").
		LeftJoinPrefixed(build, "zip", "zip", "", "r_").
		SelectColumns("zip", "price2", "r_state").
		Unique().
		Cache()
}

func TestPlanRoundTripAndGolden(t *testing.T) {
	d := fullDataSet()
	pl, err := d.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	b1, err := json.Marshal(pl)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var pl2 Plan
	if err := json.Unmarshal(b1, &pl2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(&pl2)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"v":1`) {
		t.Fatalf("plan is not versioned: %s", b1)
	}

	golden := filepath.Join("testdata", "plan_full.json")
	pretty := pl.String()
	if *updatePlanGolden {
		if err := os.WriteFile(golden, []byte(pretty), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden (run with -update-plan to regenerate): %v", err)
	}
	if pretty != string(want) {
		t.Fatalf("plan drifted from golden %s:\n%s", golden, pretty)
	}
	// The golden file itself must parse and re-encode identically.
	back, err := ParsePlan(want)
	if err != nil {
		t.Fatalf("parsing golden: %v", err)
	}
	if back.String() != string(want) {
		t.Fatalf("golden did not round-trip")
	}
}

func TestParsePlanRejections(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"v":2,"source":{"kind":"csv","path":"x"}}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported spec version 2") {
		t.Fatalf("want version error, got %v", err)
	}
	if _, err := ParsePlan([]byte(`{"v":1,"source":{"kind":"csv","path":"x"},"surprise":1}`)); err == nil {
		t.Fatalf("unknown fields must be rejected")
	}
	pl, err := ParsePlan([]byte(`{"v":1,"source":{"kind":"csv","path":"x"},"ops":[{"kind":"explode"}]}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := pl.Validate(); err == nil ||
		!strings.Contains(err.Error(), `unknown op kind "explode"`) ||
		!strings.Contains(err.Error(), "known kinds:") {
		t.Fatalf("want actionable op-kind error, got %v", err)
	}
}

// TestPlanRunMatchesDataSet checks a plan executes to exactly what the
// DataSet it came from produces, and that Plan.DataSet round-trips back
// to a runnable pipeline.
func TestPlanRunMatchesDataSet(t *testing.T) {
	d := fullDataSet()
	direct, err := d.Collect()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	pl, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	viaPlan, err := pl.Run(context.Background())
	if err != nil {
		t.Fatalf("plan run: %v", err)
	}
	if !reflect.DeepEqual(direct.Rows, viaPlan.Rows) {
		t.Fatalf("plan run diverged:\n%v\nvs\n%v", direct.Rows, viaPlan.Rows)
	}
	ds2, err := pl.DataSet()
	if err != nil {
		t.Fatal(err)
	}
	viaDS, err := ds2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Rows, viaDS.Rows) {
		t.Fatalf("rebuilt dataset diverged:\n%v\nvs\n%v", direct.Rows, viaDS.Rows)
	}
}

func TestPlanSinkSetters(t *testing.T) {
	c := NewContext(WithExecutors(1))
	d := c.Parallelize([][]any{{int64(1)}, {int64(2)}, {int64(3)}}, []string{"a"})
	pl, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.WithTakeSink(1).Run(context.Background())
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("take sink: %v / %v", res, err)
	}
	res, err = pl.WithCSVSink("").Run(context.Background())
	if err != nil || len(res.CSV) == 0 {
		t.Fatalf("csv sink: %v / %v", res, err)
	}
	res, err = pl.WithAggregateSink(
		UDF("lambda acc, row: acc + row"), UDF("lambda a, b: a + b"), int64(0)).
		Run(context.Background())
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != int64(6) {
		t.Fatalf("aggregate sink: %v / %v", res, err)
	}
	// Setters are copy-on-write: the original plan still collects.
	res, err = pl.Run(context.Background())
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("original plan mutated: %v / %v", res, err)
	}
	if fp1, _ := pl.Fingerprint(); fp1 == "" {
		t.Fatalf("empty fingerprint")
	} else if fp2, _ := pl.WithTakeSink(1).Fingerprint(); fp1 == fp2 {
		t.Fatalf("sink change must change the fingerprint")
	}
}
