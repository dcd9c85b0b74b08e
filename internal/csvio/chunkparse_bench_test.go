package csvio_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/types"
)

// benchChunkSize pins the benchmark's input to one 16 MiB chunk, whatever
// the ingest default, so its MB/s stay comparable across changes to it.
const benchChunkSize = 16 << 20

// benchChunk generates a workload file, takes its first 16 MiB chunk the
// way streamed ingest does (header stripped), and builds the parse spec
// the sample yields, projecting every every-th column.
func benchChunk(b *testing.B, raw []byte, every int) ([]byte, *csvio.ParseSpec) {
	b.Helper()
	cr := csvio.NewChunkReader(bytes.NewReader(raw), csvio.ChunkCSV, benchChunkSize, nil)
	c, err := cr.Next()
	if err != nil {
		b.Fatal(err)
	}
	cut := csvio.SkipFirstRecord(c.Data, csvio.ChunkCSV)
	header := csvio.SplitCells(bytes.TrimRight(c.Data[:cut], "\r\n"), ',', nil)
	chunk := c.Data[cut:]
	plan, err := sample.Sample(csvio.AppendRecords(nil, chunk, sample.DefaultSize), ',', header, sample.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var fields []csvio.FieldSpec
	for i := 0; i < plan.Schema.Len(); i += every {
		fields = append(fields, csvio.FieldSpec{Col: i, Type: plan.Schema.Col(i).Type})
	}
	return chunk, csvio.NewParseSpec(',', plan.NumCols, fields, plan.Config.NullValues)
}

// BenchmarkParseChunk measures the streamed parse layer on 16 MiB chunks
// shaped like the benchmark's CSV workloads (flights projected to a
// fifth of its columns, as after pushdown): "records" is the per-record
// path (SplitRecords, then ParseLineVecs per record), "batch" the chunk
// parser, both in 4096-record batches into reused vectors.
func BenchmarkParseChunk(b *testing.B) {
	for _, w := range []struct {
		name  string
		raw   func() []byte
		every int
	}{
		{"q6", func() []byte { return data.TPCHLineitem(data.TPCHConfig{Rows: 600_000, Seed: 1}) }, 1},
		{"zillow", func() []byte { return data.Zillow(data.ZillowConfig{Rows: 300_000, Seed: 1}) }, 1},
		{"flights", func() []byte { return data.Flights(data.FlightsConfig{Rows: 40_000, Seed: 1}) }, 5},
	} {
		chunk, spec := benchChunk(b, w.raw(), w.every)
		vecs := spec.NewVecsFor()
		reset := func() {
			for _, v := range vecs {
				v.Reset()
			}
		}
		b.Run(w.name+"/records", func(b *testing.B) {
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			var raws [][]byte
			for range b.N {
				recs := csvio.SplitRecords(chunk)
				for start := 0; start < len(recs); start += 4096 {
					reset()
					raws = raws[:0]
					for _, rec := range recs[start:min(start+4096, len(recs))] {
						if spec.ParseLineVecs(rec, vecs) == 0 {
							raws = append(raws, rec)
						}
					}
				}
			}
		})
		b.Run(w.name+"/batch", func(b *testing.B) {
			b.SetBytes(int64(len(chunk)))
			b.ReportAllocs()
			var cb csvio.ChunkBatch
			for range b.N {
				for pos := 0; pos < len(chunk); {
					reset()
					pos = spec.ParseChunk(chunk, pos, 4096, vecs, &cb)
				}
			}
		})
		if w.name == "q6" {
			b.Run("q6/fold", func(b *testing.B) { benchQ6Fold(b, chunk, spec, false) })
			b.Run("q6/lazy", func(b *testing.B) { benchQ6Fold(b, chunk, spec, true) })
			for _, share := range []float64{0.2, 1} {
				b.Run(fmt.Sprintf("q6/ensure/share=%v", share), func(b *testing.B) { benchEnsure(b, chunk, spec, share) })
			}
		}
	}
}

// benchQ6Fold is q6/batch followed by the Q6 aggregate's vector fold over
// each batch, as the engine runs the q6.scan stage: with lazy, the
// columns the engine parses lazily for Q6 (all but l_shipdate) are
// checked in the walk and converted by the fold's loads, at the rows its
// condition has narrowed the selection to.
func benchQ6Fold(b *testing.B, chunk []byte, eager *csvio.ParseSpec, lazy bool) {
	names := []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"}
	cols := make([]types.Column, len(names))
	fields := slices.Clone(eager.Fields)
	for i := range fields {
		cols[i] = types.Column{Name: names[i], Type: fields[i].Type}
		fields[i].Lazy = lazy && i != 3
	}
	fn, err := pyast.ParseUDF(fmt.Sprintf("lambda acc, r: acc + r['l_extendedprice'] * r['l_discount'] if (r['l_shipdate'] >= %d and r['l_shipdate'] < %d and 0.05 <= r['l_discount'] <= 0.07 and r['l_quantity'] < 24) else acc",
		data.Q6DateLo, data.Q6DateHi))
	if err != nil {
		b.Fatal(err)
	}
	info, err := inference.TypeFunction(fn, []types.Type{types.F64, types.Row(types.NewSchema(cols))}, nil, inference.Options{})
	if err != nil {
		b.Fatal(err)
	}
	u, err := codegen.Compile(info, nil, codegen.DefaultOptions())
	if err != nil || u.Fold == nil {
		b.Fatalf("Q6 aggregate: %v, fold %v", err, u.Fold)
	}
	spec := csvio.NewParseSpec(eager.Delim, eager.NumCols, fields, eager.NullValues)
	vecs := spec.NewVecsFor()
	st := codegen.NewVecState()
	var cb csvio.ChunkBatch
	if lazy {
		st.SetLazy(&cb)
	}
	sel := make([]int32, 4096)
	for i := range sel {
		sel[i] = int32(i)
	}
	var revenue float64
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for range b.N {
		for pos := 0; pos < len(chunk); {
			for _, v := range vecs {
				v.Reset()
			}
			pos = spec.ParseChunk(chunk, pos, 4096, vecs, &cb)
			n := vecs[0].Len()
			revenue = u.Fold.FoldF64(st, revenue, u.Fold.Select(st, vecs, 0, n, sel[:n]))
		}
	}
	if revenue <= 0 {
		b.Fatal(revenue)
	}
}

// benchEnsure is q6/batch with every column but l_shipdate lazy, each
// batch's lazy cells then converted at a random share of its rows: set
// against q6/batch, it prices the check in the walk and the conversion on
// read against converting every cell in the walk.
func benchEnsure(b *testing.B, chunk []byte, eager *csvio.ParseSpec, share float64) {
	fields := slices.Clone(eager.Fields)
	for i := range fields {
		fields[i].Lazy = i != 3
	}
	spec := csvio.NewParseSpec(eager.Delim, eager.NumCols, fields, eager.NullValues)
	vecs := spec.NewVecsFor()
	rng := rand.New(rand.NewPCG(1, 2))
	var sel []int32
	for r := range int32(4096) {
		if rng.Float64() < share {
			sel = append(sel, r)
		}
	}
	var cb csvio.ChunkBatch
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for range b.N {
		for pos := 0; pos < len(chunk); {
			for _, v := range vecs {
				v.Reset()
			}
			pos = spec.ParseChunk(chunk, pos, 4096, vecs, &cb)
			n := int32(vecs[0].Len())
			cb.EnsureAll(sel[:sort.Search(len(sel), func(i int) bool { return sel[i] >= n })])
		}
	}
}
