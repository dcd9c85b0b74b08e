package spec

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/rows"
)

// FromNode lifts a logical plan chain back into wire form. Every
// DataSet-constructible operator round-trips; the sink is left for the
// caller to fill (it is not part of the node chain, except aggregate
// folds which encode as ops). Optimizer-internal state (pushed
// projections) is deliberately not encoded: plans re-optimize on every
// cold build, so the wire form stays a pure description of user intent.
func FromNode(node *logical.Node, opts core.Options) (*Pipeline, error) {
	p, err := fromChain(node)
	if err != nil {
		return nil, err
	}
	p.V = Version
	p.Options = fromOptions(opts)
	return p, nil
}

func fromChain(node *logical.Node) (*Pipeline, error) {
	chain := node.Chain()
	if len(chain) == 0 {
		return nil, fmt.Errorf("spec: empty plan")
	}
	p := &Pipeline{}
	src, err := fromSourceOp(chain[0].Op)
	if err != nil {
		return nil, err
	}
	p.Source = *src
	for _, nd := range chain[1:] {
		op, err := fromOp(nd.Op)
		if err != nil {
			return nil, err
		}
		p.Ops = append(p.Ops, *op)
	}
	return p, nil
}

func fromSourceOp(op logical.Op) (*Source, error) {
	switch src := op.(type) {
	case *logical.CSVSource:
		s := &Source{
			Kind:       "csv",
			Path:       src.Path,
			Data:       string(src.Data),
			Columns:    src.Columns,
			NullValues: src.NullValues,
		}
		if src.Delim != 0 && src.Delim != ',' {
			s.Delim = string(src.Delim)
		}
		hdr := src.Header
		s.Header = &hdr
		return s, nil
	case *logical.TextSource:
		return &Source{Kind: "text", Path: src.Path, Data: string(src.Data), Column: src.Column}, nil
	case *logical.ParallelizeSource:
		s := &Source{Kind: "parallelize", Columns: src.Names}
		if src.SlotRows != nil {
			s.Rows = make([][]any, len(src.SlotRows))
			for i, r := range src.SlotRows {
				vals := rows.RowToValues(r)
				row := make([]any, len(vals))
				for j, v := range vals {
					row[j] = rows.AnyValue(v)
				}
				s.Rows[i] = row
			}
		} else {
			s.Rows = make([][]any, len(src.Rows))
			for i, r := range src.Rows {
				row := make([]any, len(r))
				for j, v := range r {
					row[j] = rows.AnyValue(v)
				}
				s.Rows[i] = row
			}
		}
		return s, nil
	default:
		return nil, fmt.Errorf("spec: plan does not start at a source (got %s)", op.Name())
	}
}

func fromOp(lop logical.Op) (*Op, error) {
	switch lop := lop.(type) {
	case *logical.MapOp:
		return &Op{Kind: "map", UDF: fromUDF(lop.UDF)}, nil
	case *logical.FilterOp:
		return &Op{Kind: "filter", UDF: fromUDF(lop.UDF)}, nil
	case *logical.WithColumnOp:
		return &Op{Kind: "withColumn", Col: lop.Col, UDF: fromUDF(lop.UDF)}, nil
	case *logical.MapColumnOp:
		return &Op{Kind: "mapColumn", Col: lop.Col, UDF: fromUDF(lop.UDF)}, nil
	case *logical.RenameOp:
		return &Op{Kind: "renameColumn", Old: lop.Old, New: lop.New}, nil
	case *logical.SelectOp:
		return &Op{Kind: "selectColumns", Cols: lop.Cols}, nil
	case *logical.ResolveOp:
		return &Op{Kind: "resolve", Exc: lop.Exc.String(), UDF: fromUDF(lop.UDF)}, nil
	case *logical.IgnoreOp:
		return &Op{Kind: "ignore", Exc: lop.Exc.String()}, nil
	case *logical.JoinOp:
		build, err := fromChain(lop.Build)
		if err != nil {
			return nil, fmt.Errorf("spec: join build side: %w", err)
		}
		return &Op{
			Kind:        "join",
			Build:       build,
			LeftKey:     lop.LeftKey,
			RightKey:    lop.RightKey,
			Left:        lop.Left,
			LeftPrefix:  lop.LeftPrefix,
			RightPrefix: lop.RightPrefix,
		}, nil
	case *logical.AggregateOp:
		return &Op{
			Kind:    "aggregate",
			Agg:     fromUDF(lop.Agg),
			Comb:    fromUDF(lop.Comb),
			Initial: rows.AnyValue(lop.Initial),
		}, nil
	case *logical.UniqueOp:
		return &Op{Kind: "unique"}, nil
	case *logical.CacheOp:
		return &Op{Kind: "cache"}, nil
	default:
		return nil, fmt.Errorf("spec: operator %s has no wire form", lop.Name())
	}
}

func fromUDF(u *logical.UDFSpec) *UDF {
	out := &UDF{Code: u.Source}
	if len(u.Globals) > 0 {
		out.Globals = make(map[string]any, len(u.Globals))
		for k, v := range u.Globals {
			out.Globals[k] = rows.AnyValue(v)
		}
	}
	return out
}

// fromOptions encodes the resolved engine options in full: every field
// is explicit so a decoded plan runs with exactly the options it was
// built with, independent of the reading build's defaults. (Trace and
// telemetry configuration are process concerns, not plan content, and
// are not encoded.)
func fromOptions(o core.Options) *Options {
	b := func(v bool) *bool { return &v }
	return &Options{
		Executors:             o.Executors,
		PartitionRows:         o.PartitionRows,
		SampleSize:            o.Sample.Size,
		NullThreshold:         o.Sample.Delta,
		NullOptimization:      b(!o.Sample.DisableNullOpt),
		ProjectionPushdown:    b(o.Logical.ProjectionPushdown),
		FilterPushdown:        b(o.Logical.FilterPushdown),
		JoinReorder:           b(o.Logical.JoinReorder),
		StageFusion:           b(o.Fusion),
		CompilerOptimizations: b(o.Codegen.Specialize),
		Seed:                  o.Seed,
		ChunkSize:             o.ChunkSize,
	}
}
