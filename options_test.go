package tuplex

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/core"
)

// TestOptionToggles proves each on/off option changes the engine
// configuration when off and is the default when on.
func TestOptionToggles(t *testing.T) {
	pairs := []struct {
		name string
		off  Option
		on   Option // must match defaults
	}{
		{"null-optimization", WithNullOptimization(false), WithNullOptimization(true)},
		{"stage-fusion", WithStageFusion(false), WithStageFusion(true)},
		{"compiler-optimizations", WithCompilerOptimizations(false), WithCompilerOptimizations(true)},
	}
	apply := func(opt Option) core.Options {
		o := core.DefaultOptions()
		opt.apply(&o)
		return o
	}
	def := core.DefaultOptions()
	for _, p := range pairs {
		off, on := apply(p.off), apply(p.on)
		if reflect.DeepEqual(off, def) {
			t.Errorf("%s: With*(false) did not change the defaults", p.name)
		}
		if !reflect.DeepEqual(on, def) {
			t.Errorf("%s: With*(true) != defaults:\n%+v\nvs\n%+v", p.name, on, def)
		}
	}
}

func TestTakeContract(t *testing.T) {
	data := [][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}, {int64(5)}}
	c := NewContext()
	ds := c.Parallelize(data, []string{"v"}).MapColumn("v", UDF("lambda v: v * 10"))

	full, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Take(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Take(2) rows = %d", len(res.Rows))
	}
	// The whole pipeline still ran: every input row was processed.
	if res.Metrics.Rows.Input != 5 {
		t.Fatalf("Take(2) input rows = %d, want 5 (pipeline runs fully)", res.Metrics.Rows.Input)
	}
	// Take(-1) is the documented "all rows" spelling.
	all, err := ds.Take(-1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.Rows, full.Rows) {
		t.Fatalf("Take(-1) = %v, Collect = %v", all.Rows, full.Rows)
	}
	zero, err := ds.Take(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Rows) != 0 {
		t.Fatalf("Take(0) rows = %d", len(zero.Rows))
	}
}

func TestParallelizeWarnsOnUnsupportedTypes(t *testing.T) {
	type opaque struct{ X int }
	data := [][]any{
		{int64(1), "ok"},
		{int64(2), opaque{X: 7}},
		{int64(3), []any{"nested", float32(1.5)}},
	}
	c := NewContext()
	res, err := c.Parallelize(data, []string{"id", "payload"}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 2 {
		t.Fatalf("warnings = %v", res.Warnings)
	}
	if !strings.Contains(res.Warnings[0], `row 1, column "payload"`) ||
		!strings.Contains(res.Warnings[0], "tuplex.opaque") {
		t.Fatalf("warning[0] = %q", res.Warnings[0])
	}
	if !strings.Contains(res.Warnings[1], `row 2, column "payload"`) {
		t.Fatalf("warning[1] = %q", res.Warnings[1])
	}
	// The rows still execute, stringified.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Clean input produces no warnings.
	res, err = c.Parallelize([][]any{{int64(1), "a"}, {nil, true}}, []string{"x", "y"}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean input warnings = %v", res.Warnings)
	}
}

func TestParallelizeWarningsCapped(t *testing.T) {
	type opaque struct{}
	data := make([][]any, 9)
	for i := range data {
		data[i] = []any{opaque{}}
	}
	c := NewContext()
	res, err := c.Parallelize(data, []string{"v"}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != maxParallelizeWarnings+1 {
		t.Fatalf("warnings = %d, want %d capped + 1 summary", len(res.Warnings), maxParallelizeWarnings)
	}
	last := res.Warnings[len(res.Warnings)-1]
	if !strings.Contains(last, fmt.Sprintf("%d more", len(data)-maxParallelizeWarnings)) {
		t.Fatalf("summary warning = %q", last)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	csv := "v\n1\n2\n3\n"
	c := NewContext()
	res, err := c.CSV("", CSVData([]byte(csv))).
		MapColumn("v", UDF("lambda v: v + 1")).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metrics, &back) {
		t.Fatalf("metrics do not round-trip:\n%+v\nvs\n%+v", res.Metrics, &back)
	}
	if !strings.Contains(string(b), `"num_stages"`) {
		t.Fatalf("missing stable field name in %s", b)
	}
}
