package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/spec"
)

// layerSamples collects one value per probe repetition for each
// per-layer metric; the report is the median.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

// probeLayers takes one plan apart the way the engine and the service
// do, timing each layer's public entry points from outside. Every call
// is a span under one root, so the trace shows one repetition as one
// tree; rep picks the plan, run is the spans' shared id.
func probeLayers(r *runner, rec *recorder, rep, run int, out layerSamples) error {
	root := rec.begin("probe", -1, run, 0)
	defer rec.end(root)
	// timed runs f inside a span and returns how long it took.
	timed := func(name string, parent int, f func() error) (time.Duration, error) {
		id := rec.begin(name, parent, run, 0)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return d, err
	}

	raw, err := r.plan(rep)
	if err != nil {
		return err
	}
	var p *spec.Pipeline
	d, err := timed("spec.decode", root, func() (err error) { p, err = spec.Decode(raw); return })
	if err != nil {
		return err
	}
	out.add("spec.decode_ms", ms(d))
	d, err = timed("spec.fingerprint", root, func() error { _, err := p.Fingerprint(); return err })
	if err != nil {
		return err
	}
	out.add("spec.fingerprint_ms", ms(d))
	d, err = timed("plancheck.check", root, func() error {
		if diags := plancheck.Check(p); plancheck.HasErrors(diags) {
			return fmt.Errorf("%v", diags[0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.add("plancheck.check_ms", ms(d))

	// Optimize rewrites the plan it is given, so the planner probes and
	// the engine probes each build their own.
	var planned *spec.Built
	d, err = timed("spec.build", root, func() (err error) { planned, err = p.Build(); return })
	if err != nil {
		return err
	}
	out.add("spec.build_ms", ms(d))
	out.add("logical.ops_in", float64(len(planned.Node.Chain())))
	var optimized *logical.Node
	d, err = timed("logical.optimize", root, func() (err error) {
		optimized, err = logical.Optimize(planned.Node, planned.Opts.Logical)
		return
	})
	if err != nil {
		return err
	}
	out.add("logical.optimize_ms", ms(d))
	out.add("logical.ops_out", float64(len(optimized.Chain())))
	var stages *physical.Plan
	d, err = timed("physical.split", root, func() (err error) {
		stages, err = physical.Split(optimized, physical.Options{Fusion: planned.Opts.Fusion})
		return
	})
	if err != nil {
		return err
	}
	out.add("physical.split_ms", ms(d))
	out.add("physical.stages", float64(stages.NumStages()))

	if r.input != "" {
		if err := probeFile(r.input, planned.Opts.Sample, rec, root, run, out); err != nil {
			return err
		}
	} else {
		boxed := make([][]pyvalue.Value, len(p.Source.Rows))
		for i, row := range p.Source.Rows {
			for _, v := range row {
				boxed[i] = append(boxed[i], spec.BoxValue(v))
			}
		}
		d, err = timed("sample.sample", root, func() error {
			_, err := sample.SampleValues(boxed, p.Source.Columns, planned.Opts.Sample)
			return err
		})
		if err != nil {
			return err
		}
		out.add("sample.sample_ms", ms(d))
	}

	built, err := p.Build()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var first *core.Result
	var cp *core.CompiledPlan
	cold, err := timed("core.compile_and_execute", root, func() (err error) {
		first, cp, err = core.CompileAndExecute(ctx, built.Node, built.Kind, built.CSVPath, built.Opts)
		return
	})
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm, err := timed("core.execute", root, func() error {
		_, err := cp.Execute(ctx, built.CSVPath)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m := first.Metrics
	in := m.Counters.InputRows.Load()
	// Not a reported metric: service.overhead_ms is computed from it.
	out.add("core.compile_and_execute_s", cold.Seconds())
	out.add("core.compile_s", (cold - warm).Seconds())
	out.add("core.execute_s", warm.Seconds())
	out.add("core.allocs_per_row", float64(after.Mallocs-before.Mallocs)/float64(max(in, 1)))
	out.add("core.resolve_share", float64(m.Timings.Resolve)/float64(max(m.Timings.Total, 1)))
	out.add("core.exception_share", m.Counters.ExceptionRate())
	out.add("core.join_probe_rows", float64(m.Join.ProbeHits.Load()+m.Join.ProbeMisses.Load()))
	out.add("core.bounced_rows", float64(m.Batch.BouncedRows.Load()))
	return nil
}

// probeFile streams a CSV input through csvio the way streamed ingest
// does — record-aligned chunks, split, then the generated parser over
// every column — with the sampler run once on the first chunk.
func probeFile(path string, cfg sample.Config, rec *recorder, parent, run int, out layerSamples) error {
	scan := rec.begin("csvio.scan", parent, run, 0)
	defer rec.end(scan)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csvio.NewChunkReader(f, csvio.ChunkCSV, 0, nil)
	var parser *csvio.ParseSpec
	var splitTime, parseTime time.Duration
	var records, rejects int
	for {
		id := rec.begin("csvio.split", scan, run, 0)
		t0 := time.Now()
		ch, err := cr.Next()
		var recs [][]byte
		if err == nil {
			recs = csvio.SplitRecords(ch.Data)
		}
		splitTime += time.Since(t0)
		rec.end(id)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("csvio.split: %w", err)
		}
		if parser == nil {
			if len(recs) < 2 {
				return fmt.Errorf("csvio.scan: %s has no records", path)
			}
			header := csvio.SplitCells(recs[0], ',', nil)
			recs = recs[1:]
			id := rec.begin("sample.sample", scan, run, 0)
			t0 := time.Now()
			plan, err := sample.Sample(recs, ',', header, cfg)
			out.add("sample.sample_ms", ms(time.Since(t0)))
			rec.end(id)
			if err != nil {
				return fmt.Errorf("sample.sample: %w", err)
			}
			fields := make([]csvio.FieldSpec, plan.Schema.Len())
			for i := range fields {
				fields[i] = csvio.FieldSpec{Col: i, Type: plan.Schema.Col(i).Type}
			}
			parser = csvio.NewParseSpec(',', plan.NumCols, fields, plan.Config.NullValues)
		}
		id = rec.begin("csvio.parse", scan, run, 0)
		t0 = time.Now()
		vecs := parser.NewVecsFor()
		for _, line := range recs {
			if parser.ParseLineVecs(line, vecs) != 0 {
				rejects++
			}
		}
		parseTime += time.Since(t0)
		rec.end(id)
		records += len(recs)
		ch.Release()
	}
	mb := float64(cr.BytesRead()) / 1e6
	out.add("csvio.split_mb_per_s", mb/splitTime.Seconds())
	out.add("csvio.parse_mb_per_s", mb/parseTime.Seconds())
	out.add("csvio.parse_reject_share", float64(rejects)/float64(max(records, 1)))
	return nil
}
