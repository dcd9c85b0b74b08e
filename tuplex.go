// Package tuplex is a Go implementation of Tuplex, the data analytics
// framework that compiles natural Python UDFs into specialized native
// code with dual-mode execution (Spiegelberg et al., SIGMOD 2021).
//
// Pipelines mirror the paper's LINQ-style API:
//
//	c := tuplex.NewContext()
//	carriers := c.CSV("carriers.csv", tuplex.CSVHeader(true))
//	res, err := c.CSV("flights.csv", tuplex.CSVHeader(true)).
//		Join(carriers, "code", "code").
//		MapColumn("distance", tuplex.UDF("lambda m: m * 1.609")).
//		Resolve(tuplex.TypeError, tuplex.UDF("lambda m: 0.0")).
//		ToCSV("output.csv")
//
// UDFs are Python source strings (lambdas or single defs) with no type
// annotations. The engine samples the input to establish the normal
// case, compiles a specialized fast path plus a row classifier, and
// retries non-conforming rows on the compiled general-case path, the
// interpreter fallback and user resolvers — pipelines complete even on
// dirty data, with unresolved rows reported instead of raised.
package tuplex

import (
	"context"
	"fmt"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
)

// ExcKind identifies a Python exception class for Resolve/Ignore.
type ExcKind uint8

// Exception kinds usable with Resolve and Ignore.
const (
	TypeError         = ExcKind(pyvalue.ExcTypeError)
	ValueError        = ExcKind(pyvalue.ExcValueError)
	ZeroDivisionError = ExcKind(pyvalue.ExcZeroDivisionError)
	IndexError        = ExcKind(pyvalue.ExcIndexError)
	KeyError          = ExcKind(pyvalue.ExcKeyError)
	AttributeError    = ExcKind(pyvalue.ExcAttributeError)
)

// String names the exception class ("TypeError", ...).
func (k ExcKind) String() string { return pyvalue.ExcKind(k).String() }

// UDFDef is a Python UDF definition: source plus optional globals.
type UDFDef struct {
	source  string
	globals map[string]any
}

// UDF wraps Python source (a lambda or a def) as a pipeline UDF.
func UDF(source string) UDFDef { return UDFDef{source: source} }

// WithGlobal binds a module-level constant visible to the UDF (e.g. an
// alphabet string used with random.choice).
func (u UDFDef) WithGlobal(name string, value any) UDFDef {
	g := map[string]any{}
	for k, v := range u.globals {
		g[k] = v
	}
	g[name] = value
	return UDFDef{source: u.source, globals: g}
}

// Option configures a Context. Options are opaque values built by the
// With* constructors; external modules never need to name any engine
// type.
type Option struct {
	apply func(*core.Options)
}

// WithExecutors sets the executor thread count.
func WithExecutors(n int) Option {
	return Option{apply: func(o *core.Options) { o.Executors = n }}
}

// WithSampleSize sets how many input rows the sampler inspects.
func WithSampleSize(n int) Option {
	return Option{apply: func(o *core.Options) { o.Sample.Size = n }}
}

// WithNullThreshold sets the δ threshold of §4.2's option-type policy.
func WithNullThreshold(delta float64) Option {
	return Option{apply: func(o *core.Options) { o.Sample.Delta = delta }}
}

// WithNullOptimization toggles normal-case null specialization (§6.3.3
// ablation when false; default on).
func WithNullOptimization(on bool) Option {
	return Option{apply: func(o *core.Options) { o.Sample.DisableNullOpt = !on }}
}

// WithLogicalOptimizations sets the planner rewrites individually;
// WithLogicalOptimizations(false, false, false) disables them all.
func WithLogicalOptimizations(projection, filter, joinReorder bool) Option {
	return Option{apply: func(o *core.Options) {
		o.Logical = logical.Options{
			ProjectionPushdown: projection,
			FilterPushdown:     filter,
			JoinReorder:        joinReorder,
		}
	}}
}

// WithStageFusion toggles maximal stages (§6.3.2 ablation when false;
// default on: every UDF operator fuses into its stage).
func WithStageFusion(on bool) Option {
	return Option{apply: func(o *core.Options) { o.Fusion = on }}
}

// WithCompilerOptimizations toggles specialized fast-path code
// generation. When false, the fast path uses generic boxed dispatch —
// the "LLVM optimizers disabled" arm of Fig. 11. Default on.
func WithCompilerOptimizations(on bool) Option {
	return Option{apply: func(o *core.Options) { o.Codegen = codegen.Options{Specialize: on} }}
}

// WithSeed seeds random.choice. Each partition task draws from its own
// stream, derived from the seed and the partition index, and partition
// cuts follow the executor count and the chunk cap (see WithChunkSize).
// So the same seed gives the same output only at the same WithExecutors
// and WithChunkSize.
func WithSeed(seed uint64) Option {
	return Option{apply: func(o *core.Options) { o.Seed = seed }}
}

// WithChunkSize caps the ingest chunk size in bytes (default 1 MiB).
// CSV and text sources, files and inline data alike, are read in chunks
// of about input bytes / (4 * executors), at least 64 KiB and at most n;
// each chunk becomes one partition task, so smaller chunks expose more
// parallelism at the cost of per-task overhead.
func WithChunkSize(n int) Option {
	return Option{apply: func(o *core.Options) { o.ChunkSize = n }}
}

// Context owns configuration and is the entry point for pipelines,
// mirroring tuplex.Context() in the paper.
type Context struct {
	opts core.Options
}

// NewContext returns a Context with the given options applied over
// defaults.
func NewContext(opts ...Option) *Context {
	o := core.DefaultOptions()
	for _, opt := range opts {
		if opt.apply != nil {
			opt.apply(&o)
		}
	}
	return &Context{opts: o}
}

// CSVOption configures a CSV source. Like Option, it is an opaque value
// built by the CSV* constructors.
type CSVOption struct {
	apply func(*logical.CSVSource)
}

// CSVHeader declares whether the file's first row is a header (default
// true).
func CSVHeader(has bool) CSVOption {
	return CSVOption{apply: func(s *logical.CSVSource) { s.Header = has }}
}

// CSVDelimiter sets the field delimiter.
func CSVDelimiter(d byte) CSVOption {
	return CSVOption{apply: func(s *logical.CSVSource) { s.Delim = d }}
}

// CSVColumns names the columns (implies no reliance on a header row).
func CSVColumns(names ...string) CSVOption {
	return CSVOption{apply: func(s *logical.CSVSource) { s.Columns = names }}
}

// CSVNullValues sets the cell spellings treated as NULL.
func CSVNullValues(values ...string) CSVOption {
	return CSVOption{apply: func(s *logical.CSVSource) { s.NullValues = values }}
}

// CSVData supplies the content directly instead of reading a path.
func CSVData(data []byte) CSVOption {
	return CSVOption{apply: func(s *logical.CSVSource) { s.Data = data }}
}

// CSV opens a CSV dataset.
func (c *Context) CSV(path string, opts ...CSVOption) *DataSet {
	src := &logical.CSVSource{Path: path, Header: true, Delim: ','}
	for _, opt := range opts {
		if opt.apply != nil {
			opt.apply(src)
		}
	}
	return &DataSet{ctx: c, node: &logical.Node{Op: src}}
}

// TextOption configures a text source. Like Option, it is an opaque
// value built by the Text* constructors.
type TextOption struct {
	apply func(*logical.TextSource)
}

// TextData supplies content directly.
func TextData(data []byte) TextOption {
	return TextOption{apply: func(s *logical.TextSource) { s.Data = data }}
}

// TextColumn names the single text column (default "value").
func TextColumn(name string) TextOption {
	return TextOption{apply: func(s *logical.TextSource) { s.Column = name }}
}

// Text opens newline-delimited text as single-column rows.
func (c *Context) Text(path string, opts ...TextOption) *DataSet {
	src := &logical.TextSource{Path: path}
	for _, opt := range opts {
		if opt.apply != nil {
			opt.apply(src)
		}
	}
	return &DataSet{ctx: c, node: &logical.Node{Op: src}}
}

// maxParallelizeWarnings caps the per-call unsupported-type warnings so
// a large dirty input doesn't flood Result.Warnings.
const maxParallelizeWarnings = 5

// Parallelize wraps in-memory rows. Each row is a slice of Go values
// (nil, bool, int/int64, float64, string, nested []any, map[string]any).
// Values of any other Go type are converted with fmt.Sprint and reported
// in Result.Warnings, naming the offending row and column.
func (c *Context) Parallelize(data [][]any, columns []string) *DataSet {
	var warns []string
	skipped := 0
	// Rows convert straight to the unboxed slot representation over one
	// shared slab: scalar cells never touch the heap, and the engine
	// samples, classifies and executes without a boxed detour.
	ncells := 0
	for _, r := range data {
		ncells += len(r)
	}
	slab := make([]rows.Slot, 0, ncells)
	slotRows := make([]rows.Row, len(data))
	for i, r := range data {
		start := len(slab)
		for j, v := range r {
			s, ok := slotFromAny(v)
			if !ok {
				if len(warns) < maxParallelizeWarnings {
					col := fmt.Sprintf("%d", j)
					if j < len(columns) {
						col = fmt.Sprintf("%q", columns[j])
					}
					warns = append(warns, fmt.Sprintf(
						"parallelize: row %d, column %s: unsupported Go type %T converted with fmt.Sprint", i, col, v))
				} else {
					skipped++
				}
			}
			slab = append(slab, s)
		}
		slotRows[i] = slab[start:len(slab):len(slab)]
	}
	if skipped > 0 {
		warns = append(warns, fmt.Sprintf("parallelize: %d more unsupported-type conversions", skipped))
	}
	src := &logical.ParallelizeSource{SlotRows: slotRows, Names: columns}
	return &DataSet{ctx: c, node: &logical.Node{Op: src}, warns: warns}
}

// slotFromAny converts one Go value to a slot; scalars convert in place,
// everything else goes through the boxed checker (ok=false when the
// value was stringified with fmt.Sprint).
func slotFromAny(v any) (rows.Slot, bool) {
	switch v := v.(type) {
	case nil:
		return rows.Null(), true
	case bool:
		return rows.Bool(v), true
	case int:
		return rows.I64(int64(v)), true
	case int64:
		return rows.I64(v), true
	case float64:
		return rows.F64(v), true
	case string:
		return rows.Str(v), true
	default:
		bv, ok := boxValueChecked(v)
		return rows.FromValue(bv), ok
	}
}

func boxValue(v any) pyvalue.Value {
	bv, _ := boxValueChecked(v)
	return bv
}

// boxValueChecked boxes a Go value; ok is false when v (or any nested
// element) has no Python mapping and was stringified with fmt.Sprint.
func boxValueChecked(v any) (_ pyvalue.Value, ok bool) {
	switch v := v.(type) {
	case nil:
		return pyvalue.None{}, true
	case bool:
		return pyvalue.Bool(v), true
	case int:
		return pyvalue.Int(int64(v)), true
	case int64:
		return pyvalue.Int(v), true
	case float64:
		return pyvalue.Float(v), true
	case string:
		return pyvalue.Str(v), true
	case []any:
		ok = true
		items := make([]pyvalue.Value, len(v))
		for i, it := range v {
			bv, bok := boxValueChecked(it)
			items[i] = bv
			ok = ok && bok
		}
		return &pyvalue.List{Items: items}, ok
	case map[string]any:
		ok = true
		d := pyvalue.NewDict()
		for k, it := range v {
			bv, bok := boxValueChecked(it)
			d.Set(k, bv)
			ok = ok && bok
		}
		return d, ok
	case pyvalue.Value:
		return v, true
	default:
		return pyvalue.Str(fmt.Sprint(v)), false
	}
}

// DataSet is a lazily-built pipeline, mirroring the paper's dataset
// handle. Operators return new DataSets; nothing executes until an
// action (Collect / ToCSV / Aggregate).
type DataSet struct {
	ctx  *Context
	node *logical.Node
	err  error
	// warns carries advisory messages gathered while building the
	// pipeline (e.g. Parallelize type conversions); they surface on
	// Result.Warnings.
	warns []string
}

func (d *DataSet) chain(op logical.Op) *DataSet {
	if d.err != nil {
		return d
	}
	nd := &DataSet{ctx: d.ctx, node: &logical.Node{Op: op, Input: d.node}, warns: d.warns}
	if d.ctx != nil && d.ctx.opts.Validate {
		if err := nd.validateNow(); err != nil {
			return nd.fail(err)
		}
	}
	return nd
}

func (d *DataSet) udf(u UDFDef) (*logical.UDFSpec, error) {
	globals := map[string]pyvalue.Value{}
	for k, v := range u.globals {
		globals[k] = boxValue(v)
	}
	if len(globals) == 0 {
		globals = nil
	}
	return logical.ParseUDF(u.source, globals)
}

func (d *DataSet) fail(err error) *DataSet {
	return &DataSet{ctx: d.ctx, node: d.node, err: err, warns: d.warns}
}

// Map replaces each row with the UDF's result; dict results become named
// columns.
func (d *DataSet) Map(u UDFDef) *DataSet {
	spec, err := d.udf(u)
	if err != nil {
		return d.fail(err)
	}
	return d.chain(&logical.MapOp{UDF: spec})
}

// Filter keeps rows for which the UDF returns a truthy value.
func (d *DataSet) Filter(u UDFDef) *DataSet {
	spec, err := d.udf(u)
	if err != nil {
		return d.fail(err)
	}
	return d.chain(&logical.FilterOp{UDF: spec})
}

// WithColumn adds (or replaces) a column computed from the whole row.
func (d *DataSet) WithColumn(col string, u UDFDef) *DataSet {
	spec, err := d.udf(u)
	if err != nil {
		return d.fail(err)
	}
	return d.chain(&logical.WithColumnOp{Col: col, UDF: spec})
}

// MapColumn rewrites one column; the UDF receives the column value.
func (d *DataSet) MapColumn(col string, u UDFDef) *DataSet {
	spec, err := d.udf(u)
	if err != nil {
		return d.fail(err)
	}
	return d.chain(&logical.MapColumnOp{Col: col, UDF: spec})
}

// RenameColumn renames a column.
func (d *DataSet) RenameColumn(old, new string) *DataSet {
	return d.chain(&logical.RenameOp{Old: old, New: new})
}

// SelectColumns projects to the named columns, in order.
func (d *DataSet) SelectColumns(cols ...string) *DataSet {
	return d.chain(&logical.SelectOp{Cols: cols})
}

// Resolve attaches an exception resolver to the preceding operator; the
// resolver UDF receives the same input the failing UDF received.
func (d *DataSet) Resolve(exc ExcKind, u UDFDef) *DataSet {
	spec, err := d.udf(u)
	if err != nil {
		return d.fail(err)
	}
	return d.chain(&logical.ResolveOp{Exc: pyvalue.ExcKind(exc), UDF: spec})
}

// Ignore drops rows that raised the given exception in the preceding
// operator.
func (d *DataSet) Ignore(exc ExcKind) *DataSet {
	return d.chain(&logical.IgnoreOp{Exc: pyvalue.ExcKind(exc)})
}

// Join inner-joins with other (the build side) on leftKey == rightKey.
func (d *DataSet) Join(other *DataSet, leftKey, rightKey string) *DataSet {
	return d.joinWith(other, leftKey, rightKey, false, "", "")
}

// LeftJoin left-outer-joins with other; unmatched rows pad the build
// side's columns with None.
func (d *DataSet) LeftJoin(other *DataSet, leftKey, rightKey string) *DataSet {
	return d.joinWith(other, leftKey, rightKey, true, "", "")
}

// LeftJoinPrefixed left-joins and prefixes each side's column names
// (mirrors the paper's prefixes=(None, 'Origin') keyword).
func (d *DataSet) LeftJoinPrefixed(other *DataSet, leftKey, rightKey, leftPrefix, rightPrefix string) *DataSet {
	return d.joinWith(other, leftKey, rightKey, true, leftPrefix, rightPrefix)
}

func (d *DataSet) joinWith(other *DataSet, leftKey, rightKey string, left bool, lp, rp string) *DataSet {
	if other.err != nil {
		return d.fail(other.err)
	}
	if len(other.warns) > 0 {
		d = &DataSet{ctx: d.ctx, node: d.node, warns: append(append([]string{}, d.warns...), other.warns...)}
	}
	return d.chain(&logical.JoinOp{
		Build:       other.node,
		LeftKey:     leftKey,
		RightKey:    rightKey,
		Left:        left,
		LeftPrefix:  lp,
		RightPrefix: rp,
	})
}

// Unique deduplicates rows.
func (d *DataSet) Unique() *DataSet {
	return d.chain(&logical.UniqueOp{})
}

// Cache materializes rows at this point (a stage boundary).
func (d *DataSet) Cache() *DataSet {
	return d.chain(&logical.CacheOp{})
}

// Err reports any deferred pipeline-construction error (UDF parse
// failures surface here and from the terminal action).
func (d *DataSet) Err() error { return d.err }

// Row is one boxed result row.
type Row []any

// Result is a completed pipeline run.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows holds collected rows (Collect only).
	Rows []Row
	// CSV holds rendered output (ToCSV only).
	CSV []byte
	// Failed reports rows no path could process.
	Failed []FailedRow
	// Metrics exposes path statistics and timings.
	Metrics *Metrics
	// Trace is the run's observability record: span tree, task timings
	// and — at TraceRows and above — the row-routing ledger. Nil when the
	// run used WithTracing(TraceOff).
	Trace *Trace
	// Warnings carries advisory messages.
	Warnings []string
}

// FailedRow describes an input row no execution path could process.
// Failed rows are reported here rather than raised (§3).
type FailedRow struct {
	// Exc is the Python exception class the row raised.
	Exc ExcKind `json:"exc"`
	// Msg is the exception message.
	Msg string `json:"msg"`
	// Input is the rendered input row.
	Input string `json:"input"`
}

// Collect executes the pipeline and returns all rows.
func (d *DataSet) Collect() (*Result, error) {
	return d.run(core.SinkCollect, "", -1)
}

// Take executes the pipeline and returns at most n rows. The whole
// pipeline still runs over the full input; only the first n output rows
// are converted to Go values. Take(-1) (any negative n) returns all rows,
// exactly like Collect.
func (d *DataSet) Take(n int) (*Result, error) {
	return d.run(core.SinkCollect, "", n)
}

// ToCSV executes the pipeline and writes CSV to path ("" keeps the bytes
// in the Result only).
func (d *DataSet) ToCSV(path string) (*Result, error) {
	return d.run(core.SinkCSV, path, -1)
}

// Aggregate folds all rows: agg is `lambda acc, row: ...`, comb merges
// two partial accumulators, initial is the starting value. Returns the
// final accumulator.
func (d *DataSet) Aggregate(agg, comb UDFDef, initial any) (any, *Result, error) {
	return d.AggregateContext(context.Background(), agg, comb, initial)
}

func (d *DataSet) run(kind core.SinkKind, path string, take int) (*Result, error) {
	return d.runCtx(context.Background(), kind, path, take)
}

// runCtx executes the pipeline into the given sink; take >= 0 keeps only
// the first take collected rows, which are all the engine boxes.
func (d *DataSet) runCtx(ctx context.Context, kind core.SinkKind, path string, take int) (*Result, error) {
	if d.err != nil {
		return nil, d.err
	}
	opts := d.ctx.opts
	if take >= 0 {
		opts.CollectLimit = max(take, 1) // 0 would box every row
	}
	cr, err := core.ExecuteContext(ctx, d.node, kind, path, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		CSV:      cr.CSV,
		Metrics:  newMetrics(cr.Metrics),
		Trace:    newTrace(cr.Trace),
		Warnings: append(append([]string{}, d.warns...), cr.Warnings...),
	}
	if len(res.Warnings) == 0 {
		res.Warnings = nil
	}
	for _, f := range cr.Failed {
		res.Failed = append(res.Failed, FailedRow{Exc: ExcKind(f.Exc), Msg: f.Msg, Input: f.Input})
	}
	if cr.Schema != nil {
		res.Columns = cr.Schema.Names()
	}
	if cr.Rows != nil {
		res.Rows = make([]Row, len(cr.Rows))
		for i, r := range cr.Rows {
			res.Rows[i] = r
		}
	}
	if take >= 0 && len(res.Rows) > take {
		res.Rows = res.Rows[:take:take]
	}
	return res, nil
}
