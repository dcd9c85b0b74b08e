package codegen

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// serveColdUDF is the first UDF of the serve.cold benchmark plan: 40
// conditional terms over column a, 2.1 KB of source.
func serveColdUDF() string {
	var sb strings.Builder
	sb.WriteString("lambda x: x['a'] + k0")
	for t := 0; t < 40; t++ {
		fmt.Fprintf(&sb, " + (x['a'] * %d if x['a'] %% %d == 0 else %d - x['a'])", t+1, t+2, t)
	}
	return sb.String()
}

// BenchmarkFrontEnd times each layer a cold submission runs per UDF —
// lex, parse (lex included), inference, dataflow and code generation —
// on the serve.cold UDF, typed and seeded as the engine types it for
// serve.cold's four rows. MB/s is over the UDF's source bytes.
//
//	go test -run '^$' -bench FrontEnd -cpu 1 ./internal/codegen
func BenchmarkFrontEnd(b *testing.B) {
	src := serveColdUDF()
	row := types.Row(types.NewSchema([]types.Column{{Name: "a", Type: types.I64}, {Name: "s", Type: types.Str}}))
	params := []types.Type{row}
	globals := map[string]pyvalue.Value{"k0": pyvalue.Int(7)}
	globalTypes := map[string]types.Type{"k0": types.I64}
	flowOpts := dataflow.Options{
		Columns:   []dataflow.ColFact{{Type: types.I64, Lo: 1, Hi: 4, HasRange: true}, {Type: types.Str}},
		NullFacts: true,
		Globals:   globals,
	}
	mustParse := func(b *testing.B) *pyast.Function {
		fn, err := pyast.ParseUDF(src)
		if err != nil {
			b.Fatal(err)
		}
		return fn
	}
	mustType := func(b *testing.B, fn *pyast.Function) *inference.Info {
		info, err := inference.TypeFunction(fn, params, globalTypes, inference.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return info
	}
	run := func(name string, body func(b *testing.B)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			body(b)
		})
	}
	run("lex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pyast.Lex(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustParse(b)
		}
	})
	run("infer", func(b *testing.B) {
		fn := mustParse(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustType(b, fn)
		}
	})
	run("dataflow", func(b *testing.B) {
		info := mustType(b, mustParse(b))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dataflow.Analyze(info, flowOpts)
		}
	})
	run("codegen", func(b *testing.B) {
		info := mustType(b, mustParse(b))
		flow := dataflow.Analyze(info, flowOpts)
		opts := DefaultOptions()
		opts.Flow = flow
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(info, globals, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
