package spec

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
)

// Built is the executable form of a decoded pipeline: the logical plan,
// the resolved engine options, and the sink disposition.
type Built struct {
	// Node is the sink-rooted logical plan (the aggregate fold, when the
	// sink aggregates, is already appended).
	Node *logical.Node
	// Opts are the resolved engine options (spec overrides over
	// defaults).
	Opts core.Options
	// Kind is the engine sink form.
	Kind core.SinkKind
	// Take caps returned rows (-1 = no cap).
	Take int
	// CSVPath is the csv sink's output path ("" keeps bytes inline).
	CSVPath string
	// IsAgg marks an aggregate sink (result is the single accumulator).
	IsAgg bool
}

// Parsed maps each UDF of a pipeline to the spec BuildParsed parsed
// from it, so a static verifier can analyze the very ASTs the built plan
// will run instead of parsing every UDF a second time.
type Parsed map[*UDF]*logical.UDFSpec

// Build validates the pipeline and lowers it to a logical plan plus
// engine options. Errors name the offending op index and kind.
func (p *Pipeline) Build() (*Built, error) {
	b, _, err := p.BuildParsed()
	return b, err
}

// BuildParsed is Build that also reports the parsed form of every UDF
// it lowered (join build sides and the aggregate sink included). The
// specs are the returned plan's own: typing writes into their ASTs, so
// they must not serve another plan.
func (p *Pipeline) BuildParsed() (*Built, Parsed, error) {
	parsed := Parsed{}
	node, err := buildChain(p, parsed)
	if err != nil {
		return nil, nil, err
	}
	b := &Built{Node: node, Opts: p.Options.resolve(), Kind: core.SinkCollect, Take: -1}
	switch p.Sink.Kind {
	case "", "collect":
	case "take":
		if p.Sink.N < 0 {
			return nil, nil, fmt.Errorf("spec: take sink needs n >= 0, got %d", p.Sink.N)
		}
		b.Take = p.Sink.N
	case "csv":
		b.Kind = core.SinkCSV
		b.CSVPath = p.Sink.Path
	case "aggregate":
		if p.Sink.Agg == nil || p.Sink.Comb == nil {
			return nil, nil, fmt.Errorf("spec: aggregate sink needs both agg and comb UDFs")
		}
		agg, err := parsed.parse(p.Sink.Agg, "sink aggregate")
		if err != nil {
			return nil, nil, err
		}
		comb, err := parsed.parse(p.Sink.Comb, "sink aggregate combiner")
		if err != nil {
			return nil, nil, err
		}
		b.Node = &logical.Node{
			Op:    &logical.AggregateOp{Agg: agg, Comb: comb, Initial: boxAny(p.Sink.Initial)},
			Input: b.Node,
		}
		b.IsAgg = true
	default:
		return nil, nil, unknownKindError("sink", p.Sink.Kind, knownSinkKinds)
	}
	return b, parsed, nil
}

// buildChain lowers source + ops to a logical node chain (shared with
// join build sides, which arrive as nested Pipelines without sinks).
func buildChain(p *Pipeline, parsed Parsed) (*logical.Node, error) {
	node, err := buildSource(&p.Source)
	if err != nil {
		return nil, err
	}
	for i := range p.Ops {
		op, err := buildOp(&p.Ops[i], i, parsed)
		if err != nil {
			return nil, err
		}
		node = &logical.Node{Op: op, Input: node}
	}
	return node, nil
}

func buildSource(s *Source) (*logical.Node, error) {
	switch s.Kind {
	case "csv":
		src := &logical.CSVSource{
			Path:       s.Path,
			Header:     true,
			Delim:      ',',
			Columns:    s.Columns,
			NullValues: s.NullValues,
		}
		if s.Data != "" {
			src.Data = []byte(s.Data)
		}
		if s.Delim != "" {
			if len(s.Delim) != 1 {
				return nil, fmt.Errorf("spec: csv delim must be one character, got %q", s.Delim)
			}
			src.Delim = s.Delim[0]
		}
		if s.Header != nil {
			src.Header = *s.Header
		}
		if src.Path == "" && src.Data == nil {
			return nil, fmt.Errorf("spec: csv source needs path or data")
		}
		return &logical.Node{Op: src}, nil
	case "text":
		src := &logical.TextSource{Path: s.Path, Column: s.Column}
		if s.Data != "" {
			src.Data = []byte(s.Data)
		}
		if src.Path == "" && src.Data == nil {
			return nil, fmt.Errorf("spec: text source needs path or data")
		}
		return &logical.Node{Op: src}, nil
	case "parallelize":
		if len(s.Rows) == 0 {
			return nil, fmt.Errorf("spec: parallelize source needs rows")
		}
		ncells := 0
		for _, r := range s.Rows {
			ncells += len(r)
		}
		slab := make([]rows.Slot, 0, ncells)
		slotRows := make([]rows.Row, len(s.Rows))
		for i, r := range s.Rows {
			start := len(slab)
			for _, v := range r {
				slab = append(slab, rows.FromValue(boxAny(v)))
			}
			slotRows[i] = slab[start:len(slab):len(slab)]
		}
		return &logical.Node{Op: &logical.ParallelizeSource{SlotRows: slotRows, Names: s.Columns}}, nil
	default:
		return nil, unknownKindError("source", s.Kind, knownSourceKinds)
	}
}

func buildOp(op *Op, idx int, parsed Parsed) (logical.Op, error) {
	where := fmt.Sprintf("op %d (%s)", idx, op.Kind)
	needUDF := func() (*logical.UDFSpec, error) {
		if op.UDF == nil {
			return nil, fmt.Errorf("spec: %s needs a udf", where)
		}
		return parsed.parse(op.UDF, where)
	}
	switch op.Kind {
	case "map":
		u, err := needUDF()
		if err != nil {
			return nil, err
		}
		return &logical.MapOp{UDF: u}, nil
	case "filter":
		u, err := needUDF()
		if err != nil {
			return nil, err
		}
		return &logical.FilterOp{UDF: u}, nil
	case "withColumn":
		u, err := needUDF()
		if err != nil {
			return nil, err
		}
		if op.Col == "" {
			return nil, fmt.Errorf("spec: %s needs col", where)
		}
		return &logical.WithColumnOp{Col: op.Col, UDF: u}, nil
	case "mapColumn":
		u, err := needUDF()
		if err != nil {
			return nil, err
		}
		if op.Col == "" {
			return nil, fmt.Errorf("spec: %s needs col", where)
		}
		return &logical.MapColumnOp{Col: op.Col, UDF: u}, nil
	case "renameColumn":
		if op.Old == "" || op.New == "" {
			return nil, fmt.Errorf("spec: %s needs old and new", where)
		}
		return &logical.RenameOp{Old: op.Old, New: op.New}, nil
	case "selectColumns":
		if len(op.Cols) == 0 {
			return nil, fmt.Errorf("spec: %s needs cols", where)
		}
		return &logical.SelectOp{Cols: op.Cols}, nil
	case "resolve":
		u, err := needUDF()
		if err != nil {
			return nil, err
		}
		exc, err := parseExc(op.Exc, where)
		if err != nil {
			return nil, err
		}
		return &logical.ResolveOp{Exc: exc, UDF: u}, nil
	case "ignore":
		exc, err := parseExc(op.Exc, where)
		if err != nil {
			return nil, err
		}
		return &logical.IgnoreOp{Exc: exc}, nil
	case "join":
		if op.Build == nil {
			return nil, fmt.Errorf("spec: %s needs a build pipeline", where)
		}
		if op.LeftKey == "" || op.RightKey == "" {
			return nil, fmt.Errorf("spec: %s needs left_key and right_key", where)
		}
		build, err := buildChain(op.Build, parsed)
		if err != nil {
			return nil, fmt.Errorf("spec: %s build side: %w", where, err)
		}
		return &logical.JoinOp{
			Build:       build,
			LeftKey:     op.LeftKey,
			RightKey:    op.RightKey,
			Left:        op.Left,
			LeftPrefix:  op.LeftPrefix,
			RightPrefix: op.RightPrefix,
		}, nil
	case "aggregate":
		if op.Agg == nil || op.Comb == nil {
			return nil, fmt.Errorf("spec: %s needs agg and comb UDFs", where)
		}
		agg, err := parsed.parse(op.Agg, where)
		if err != nil {
			return nil, err
		}
		comb, err := parsed.parse(op.Comb, where)
		if err != nil {
			return nil, err
		}
		return &logical.AggregateOp{Agg: agg, Comb: comb, Initial: boxAny(op.Initial)}, nil
	case "unique":
		return &logical.UniqueOp{}, nil
	case "cache":
		return &logical.CacheOp{}, nil
	default:
		return nil, unknownKindError("op", op.Kind, knownOpKinds)
	}
}

// parse parses one UDF and records its spec under u.
func (parsed Parsed) parse(u *UDF, where string) (*logical.UDFSpec, error) {
	var globals map[string]pyvalue.Value
	if len(u.Globals) > 0 {
		globals = make(map[string]pyvalue.Value, len(u.Globals))
		for k, v := range u.Globals {
			globals[k] = boxAny(v)
		}
	}
	s, err := logical.ParseUDF(u.Code, globals)
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", where, err)
	}
	parsed[u] = s
	return s, nil
}

// excNames maps wire names to exception kinds (user-facing classes
// only; internal codes are not addressable from specs).
var excNames = map[string]pyvalue.ExcKind{
	"TypeError":         pyvalue.ExcTypeError,
	"ValueError":        pyvalue.ExcValueError,
	"ZeroDivisionError": pyvalue.ExcZeroDivisionError,
	"IndexError":        pyvalue.ExcIndexError,
	"KeyError":          pyvalue.ExcKeyError,
	"AttributeError":    pyvalue.ExcAttributeError,
	"OverflowError":     pyvalue.ExcOverflowError,
	"NameError":         pyvalue.ExcNameError,
}

func parseExc(name, where string) (pyvalue.ExcKind, error) {
	if k, ok := excNames[name]; ok {
		return k, nil
	}
	known := make([]string, 0, len(excNames))
	for n := range excNames {
		known = append(known, n)
	}
	return 0, unknownKindError(where+" exception", name, known)
}

// resolve applies the wire options over engine defaults.
func (o *Options) resolve() core.Options {
	opts := core.DefaultOptions()
	if o == nil {
		return opts
	}
	if o.Executors > 0 {
		opts.Executors = o.Executors
	}
	if o.SampleSize > 0 {
		opts.Sample.Size = o.SampleSize
	}
	if o.NullThreshold > 0 {
		opts.Sample.Delta = o.NullThreshold
	}
	if o.NullOptimization != nil {
		opts.Sample.DisableNullOpt = !*o.NullOptimization
	}
	if o.ProjectionPushdown != nil {
		opts.Logical.ProjectionPushdown = *o.ProjectionPushdown
	}
	if o.FilterPushdown != nil {
		opts.Logical.FilterPushdown = *o.FilterPushdown
	}
	if o.JoinReorder != nil {
		opts.Logical.JoinReorder = *o.JoinReorder
	}
	if o.StageFusion != nil {
		opts.Fusion = *o.StageFusion
	}
	if o.CompilerOptimizations != nil {
		opts.Codegen = codegen.Options{Specialize: *o.CompilerOptimizations}
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	if o.ChunkSize > 0 {
		opts.ChunkSize = o.ChunkSize
	}
	return opts
}

// BoxValue converts a decoded JSON wire value to a boxed Python value —
// the same conversion Build applies to UDF globals and aggregate
// initial values, exported for static verifiers that reason about spec
// literals without building a plan.
func BoxValue(v any) pyvalue.Value { return boxAny(v) }

// ExcKindFor resolves a wire exception-class name (e.g. "TypeError") to
// its exception kind. ok is false for names specs cannot address.
func ExcKindFor(name string) (pyvalue.ExcKind, bool) {
	k, ok := excNames[name]
	return k, ok
}

// boxAny converts a decoded JSON value to a boxed Python value.
func boxAny(v any) pyvalue.Value {
	switch v := v.(type) {
	case nil:
		return pyvalue.None{}
	case bool:
		return pyvalue.Bool(v)
	case int64:
		return pyvalue.Int(v)
	case int:
		return pyvalue.Int(int64(v))
	case float64:
		return pyvalue.Float(v)
	case string:
		return pyvalue.Str(v)
	case []any:
		items := make([]pyvalue.Value, len(v))
		for i, it := range v {
			items[i] = boxAny(it)
		}
		return &pyvalue.List{Items: items}
	case map[string]any:
		d := pyvalue.NewDict()
		for k, it := range v {
			d.Set(k, boxAny(it))
		}
		return d
	case pyvalue.Value:
		return v
	default:
		return pyvalue.Str(fmt.Sprint(v))
	}
}
