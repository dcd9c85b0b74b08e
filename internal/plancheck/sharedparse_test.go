package plancheck_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/trace"
)

// TestCheckParsedAnalyzesBuildParse pins that CheckParsed analyzes the
// spec it is handed for a UDF rather than parsing the UDF's code again:
// substituting a constant 1 // 0 for the build's parse must surface as
// TPX003, which the code itself does not earn.
func TestCheckParsedAnalyzesBuildParse(t *testing.T) {
	p, err := spec.Decode([]byte(`{"v":1,
		"source": {"kind":"parallelize","columns":["a"],"rows":[[1],[2]]},
		"ops": [{"kind":"withColumn","col":"b","udf":{"code":"lambda x: x['a'] + 1"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, parsed, err := p.BuildParsed()
	if err != nil {
		t.Fatal(err)
	}
	u := p.Ops[0].UDF
	if parsed[u] == nil || len(parsed) != 1 {
		t.Fatalf("BuildParsed recorded %d specs, none for the withColumn UDF", len(parsed))
	}
	if diags := plancheck.CheckParsed(p, parsed); len(diags) != 0 {
		t.Fatalf("clean plan over its own parse: %v", diags)
	}
	if parsed[u], err = logical.ParseUDF("lambda x: 1 // 0", nil); err != nil {
		t.Fatal(err)
	}
	diags := plancheck.CheckParsed(p, parsed)
	if len(diags) != 1 || diags[0].Code != plancheck.CodeAlwaysRaises {
		t.Fatalf("want the substituted parse's %s, got %v", plancheck.CodeAlwaysRaises, diags)
	}
	if diags := plancheck.Check(p); len(diags) != 0 {
		t.Fatalf("Check parses on its own and must stay clean: %v", diags)
	}
}

// runOutcome is everything of a run that typing decides: the rows, the
// failed rows, the lint and advice warnings, each UDF's analysis
// summary and the routing ledger.
type runOutcome struct {
	Rows     string
	Failed   []core.FailedRow
	Warnings []string
	Analyses []string
	Ledger   []trace.OpRouting
}

func outcome(t *testing.T, b *spec.Built) runOutcome {
	t.Helper()
	b.Opts.Trace = trace.LevelRows
	res, _, err := core.CompileAndExecute(context.Background(), b.Node, b.Kind, b.CSVPath, b.Opts)
	if err != nil {
		t.Fatal(err)
	}
	o := runOutcome{Rows: fmt.Sprint(res.Rows) + string(res.CSV), Failed: res.Failed, Warnings: res.Warnings}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if s.Name == "analyze" {
			o.Analyses = append(o.Analyses, fmt.Sprint(s.Attrs))
		}
		o.Ledger = append(o.Ledger, s.Routing...)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(res.Trace.Root)
	return o
}

// TestSharedParseRunsLikeFreshBuild runs each paper pipeline twice: once
// built fresh, once built with BuildParsed and checked over that parse
// (the checker types every UDF at ⊤ before the engine retypes it at the
// sample's types). Rows, warnings, per-UDF analyses and the routing
// ledger must be identical: typing must not depend on an earlier typing.
func TestSharedParseRunsLikeFreshBuild(t *testing.T) {
	for name, plan := range paperPlans(t) {
		t.Run(name, func(t *testing.T) {
			wire, err := json.Marshal(plan)
			if err != nil {
				t.Fatal(err)
			}
			decode := func() *spec.Pipeline {
				p, err := spec.Decode(wire)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			fresh, err := decode().Build()
			if err != nil {
				t.Fatal(err)
			}
			want := outcome(t, fresh)

			p := decode()
			shared, parsed, err := p.BuildParsed()
			if err != nil {
				t.Fatal(err)
			}
			if diags := plancheck.CheckParsed(p, parsed); plancheck.HasErrors(diags) {
				t.Fatalf("paper pipeline rejected: %v", diags)
			}
			got := outcome(t, shared)
			// q6's only UDFs are its aggregate sink's, which the fold
			// compiles without an analyze span.
			if want.Rows == "[]" || len(want.Analyses) == 0 && name != "q6" {
				t.Fatalf("nothing compared: %d analyses, rows %.40s", len(want.Analyses), want.Rows)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run over the checked parse differs from a fresh build:\nwarnings %q\nvs       %q\nanalyses %s\nvs       %s\nledger %+v\nvs     %+v",
					got.Warnings, want.Warnings, strings.Join(got.Analyses, " "), strings.Join(want.Analyses, " "), got.Ledger, want.Ledger)
			}
		})
	}
}
