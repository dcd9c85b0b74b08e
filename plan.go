package tuplex

import (
	"bytes"
	"context"
	"crypto/sha256"
	"sync/atomic"

	"github.com/gotuplex/tuplex/internal/spec"
)

// Plan is the serializable form of a pipeline: a versioned JSON
// document ("v":1) carrying the source, every operator (UDF sources,
// globals, resolvers, join build sides), the sink and the engine
// options. The layout is stable across releases — a plan marshaled
// today decodes byte-identically later — and is exactly what a
// tuplex-serve daemon accepts at POST /v1/jobs. Unknown versions,
// fields and operator kinds are rejected with actionable errors rather
// than silently ignored.
//
// Plans are produced from a DataSet with (*DataSet).Plan, parsed from
// JSON with ParsePlan or json.Unmarshal, executed locally with Run, and
// submitted remotely with Client.Submit.
//
// A Plan does not change once made (the sink setters return copies), so
// it caches its wire bytes on first use: every Submit of one Plan sends
// the same bytes without re-encoding, and a daemon serves those bytes
// from its memo of request bodies. A Plan is safe for concurrent use;
// UnmarshalJSON, which replaces its content, is not.
type Plan struct {
	p    *spec.Pipeline
	wire atomic.Pointer[[]byte] // canonical encoding, set on first use
}

// Plan captures the DataSet's operator chain and its context's options
// as a serializable Plan with a collect sink. Use the sink setters
// (WithTakeSink, WithCSVSink, WithAggregateSink) for other terminal
// actions.
func (d *DataSet) Plan() (*Plan, error) {
	if d.err != nil {
		return nil, d.err
	}
	p, err := spec.FromNode(d.node, d.ctx.opts)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// ParsePlan decodes a versioned plan document, strictly: unknown
// versions, fields, operator/source/sink kinds and trailing garbage are
// errors.
func ParsePlan(data []byte) (*Plan, error) {
	p, err := spec.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// MarshalJSON renders the canonical (deterministic, compact) wire form.
func (p *Plan) MarshalJSON() ([]byte, error) {
	b, err := p.wireBytes()
	return bytes.Clone(b), err
}

// UnmarshalJSON decodes with ParsePlan's strictness.
func (p *Plan) UnmarshalJSON(data []byte) error {
	sp, err := spec.Decode(data)
	if err != nil {
		return err
	}
	p.p = sp
	p.wire.Store(nil)
	return nil
}

// wireBytes returns the plan's cached canonical encoding, encoding it on
// first use. Callers must not modify the bytes.
func (p *Plan) wireBytes() ([]byte, error) {
	if b := p.wire.Load(); b != nil {
		return *b, nil
	}
	b, err := p.p.Encode()
	if err != nil {
		return nil, err
	}
	p.wire.Store(&b)
	return b, nil
}

// String renders the plan as indented JSON (debugging, golden files).
func (p *Plan) String() string {
	b, err := p.p.EncodeIndent()
	if err != nil {
		return "<invalid plan: " + err.Error() + ">"
	}
	return string(b)
}

// Version reports the spec version this build writes.
func (p *Plan) Version() int { return spec.Version }

// Fingerprint derives the compiled-pipeline cache key a tuplex-serve
// daemon would use for this plan: a hash over the canonical encoding
// plus each file-backed source's size and sampled prefix. Two plans
// with equal fingerprints share one compiled pipeline server-side.
func (p *Plan) Fingerprint() (string, error) {
	b, err := p.wireBytes()
	if err != nil {
		return "", err
	}
	return p.p.FingerprintWith(sha256.Sum256(b)), nil
}

// Validate builds the plan against this binary's operator set and
// reports the first problem (unknown op kind, unparsable UDF, missing
// source, ...) without executing anything.
func (p *Plan) Validate() error {
	_, err := p.p.Build()
	return err
}

// WithCollectSink returns a copy of the plan terminating in collect.
func (p *Plan) WithCollectSink() *Plan { return p.withSink(spec.Sink{}) }

// WithTakeSink returns a copy of the plan returning at most n rows.
func (p *Plan) WithTakeSink(n int) *Plan {
	return p.withSink(spec.Sink{Kind: "take", N: n})
}

// WithCSVSink returns a copy of the plan writing CSV to path ("" keeps
// the rendered bytes in the result).
func (p *Plan) WithCSVSink(path string) *Plan {
	return p.withSink(spec.Sink{Kind: "csv", Path: path})
}

// WithAggregateSink returns a copy of the plan folding all rows; agg is
// `lambda acc, row: ...`, comb merges two partial accumulators.
func (p *Plan) WithAggregateSink(agg, comb UDFDef, initial any) *Plan {
	return p.withSink(spec.Sink{
		Kind:    "aggregate",
		Agg:     &spec.UDF{Code: agg.source, Globals: agg.globals},
		Comb:    &spec.UDF{Code: comb.source, Globals: comb.globals},
		Initial: initial,
	})
}

func (p *Plan) withSink(sink spec.Sink) *Plan {
	cp := *p.p
	cp.Sink = sink
	return &Plan{p: &cp}
}

// DataSet rebuilds the plan's operator chain as a live DataSet bound to
// a fresh Context carrying the plan's options (an aggregate sink's fold
// is part of the chain; other sink dispositions are chosen by whichever
// action the caller invokes).
func (p *Plan) DataSet() (*DataSet, error) {
	built, err := p.p.Build()
	if err != nil {
		return nil, err
	}
	return &DataSet{ctx: &Context{opts: built.Opts}, node: built.Node}, nil
}

// Run executes the plan locally under ctx with full sink fidelity:
// collect and take return rows (take truncates), csv writes or returns
// rendered bytes, aggregate returns the accumulator as the single row.
// Cancellation behaves like CollectContext.
func (p *Plan) Run(ctx context.Context) (*Result, error) {
	built, err := p.p.Build()
	if err != nil {
		return nil, err
	}
	ds := &DataSet{ctx: &Context{opts: built.Opts}, node: built.Node}
	return ds.runCtx(ctx, built.Kind, built.CSVPath, built.Take)
}
