package csvio_test

import (
	"bytes"
	"testing"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/sample"
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
	}
}
