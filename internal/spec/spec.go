// Package spec defines the versioned, serializable pipeline
// specification shared by the public tuplex.Plan codec and the
// tuplex-serve job API. A Pipeline is the wire form of one DataSet
// chain: source, operator list (with UDF sources and resolver
// attachments), sink and engine options. The JSON layout is stable and
// versioned ("v":1); unknown versions, fields and operator kinds are
// rejected with actionable errors rather than ignored.
//
// The package deliberately sits below both the public API and
// internal/service so neither needs to import the other: the root
// package wraps *spec.Pipeline as tuplex.Plan, the service decodes
// submissions straight into the same struct.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Version is the pipeline spec version this build reads and writes.
const Version = 1

// Pipeline is the versioned wire form of one pipeline.
type Pipeline struct {
	// V is the spec version (Version). Required at the top level;
	// nested join-build pipelines inherit the outer version and omit it.
	V int `json:"v,omitempty"`
	// Source is the input (csv / text / parallelize).
	Source Source `json:"source"`
	// Ops is the operator chain, in execution order.
	Ops []Op `json:"ops,omitempty"`
	// Sink is the terminal action. Empty kind means collect (and is how
	// join build sides spell "no sink").
	Sink Sink `json:"sink,omitempty"`
	// Options overrides engine defaults; nil keeps every default.
	Options *Options `json:"options,omitempty"`
}

// Source describes a pipeline input.
type Source struct {
	// Kind is "csv", "text" or "parallelize".
	Kind string `json:"kind"`
	// Path is the input path ("," joins multiple files), exclusive with
	// Data/Rows.
	Path string `json:"path,omitempty"`
	// Data inlines the file content (tests, small jobs).
	Data string `json:"data,omitempty"`
	// Delim is the CSV delimiter as a one-character string (default ",").
	Delim string `json:"delim,omitempty"`
	// Header reports whether the first record is a header row (CSV;
	// default true).
	Header *bool `json:"header,omitempty"`
	// Columns names the columns (CSV without header, parallelize).
	Columns []string `json:"columns,omitempty"`
	// NullValues are the cell spellings treated as NULL (CSV).
	NullValues []string `json:"null_values,omitempty"`
	// Rows are inline rows (parallelize).
	Rows [][]any `json:"rows,omitempty"`
	// Column names the single text column (text; default "value").
	Column string `json:"column,omitempty"`
}

// UDF is a Python UDF: source code plus optional global bindings.
type UDF struct {
	Code    string         `json:"code"`
	Globals map[string]any `json:"globals,omitempty"`
}

// Op is one operator of the chain. Kind selects which fields apply.
type Op struct {
	// Kind is one of map, filter, withColumn, mapColumn, renameColumn,
	// selectColumns, resolve, ignore, join, aggregate, unique, cache.
	Kind string `json:"kind"`
	// UDF applies to map/filter/withColumn/mapColumn/resolve.
	UDF *UDF `json:"udf,omitempty"`
	// Col applies to withColumn/mapColumn.
	Col string `json:"col,omitempty"`
	// Old/New apply to renameColumn.
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
	// Cols applies to selectColumns.
	Cols []string `json:"cols,omitempty"`
	// Exc names the exception class for resolve/ignore ("TypeError", ...).
	Exc string `json:"exc,omitempty"`
	// Build is the join's build-side pipeline (no sink).
	Build *Pipeline `json:"build,omitempty"`
	// LeftKey/RightKey/Left/LeftPrefix/RightPrefix apply to join.
	LeftKey     string `json:"left_key,omitempty"`
	RightKey    string `json:"right_key,omitempty"`
	Left        bool   `json:"left,omitempty"`
	LeftPrefix  string `json:"left_prefix,omitempty"`
	RightPrefix string `json:"right_prefix,omitempty"`
	// Agg/Comb/Initial apply to aggregate.
	Agg     *UDF `json:"agg,omitempty"`
	Comb    *UDF `json:"comb,omitempty"`
	Initial any  `json:"initial,omitempty"`
}

// Sink is the pipeline's terminal action.
type Sink struct {
	// Kind is "collect", "take", "csv" or "aggregate" ("" means collect).
	Kind string `json:"kind,omitempty"`
	// N caps returned rows (take).
	N int `json:"n,omitempty"`
	// Path writes rendered CSV to a file (csv; "" keeps bytes inline).
	Path string `json:"path,omitempty"`
	// Agg/Comb/Initial define the fold (aggregate).
	Agg     *UDF `json:"agg,omitempty"`
	Comb    *UDF `json:"comb,omitempty"`
	Initial any  `json:"initial,omitempty"`
}

// Options mirrors the engine's run options in wire form. Boolean
// toggles are pointers so "absent" keeps the engine default (most
// default to on).
type Options struct {
	Executors             int     `json:"executors,omitempty"`
	PartitionRows         int     `json:"partition_rows,omitempty"`
	SampleSize            int     `json:"sample_size,omitempty"`
	NullThreshold         float64 `json:"null_threshold,omitempty"`
	NullOptimization      *bool   `json:"null_optimization,omitempty"`
	ProjectionPushdown    *bool   `json:"projection_pushdown,omitempty"`
	FilterPushdown        *bool   `json:"filter_pushdown,omitempty"`
	JoinReorder           *bool   `json:"join_reorder,omitempty"`
	StageFusion           *bool   `json:"stage_fusion,omitempty"`
	CompilerOptimizations *bool   `json:"compiler_optimizations,omitempty"`
	Seed                  uint64  `json:"seed,omitempty"`
	Columnar              *bool   `json:"columnar,omitempty"`
	ChunkSize             int     `json:"chunk_size,omitempty"`
}

// knownOpKinds lists every operator kind Build accepts, for error
// messages.
var knownOpKinds = []string{
	"aggregate", "cache", "filter", "ignore", "join", "map", "mapColumn",
	"renameColumn", "resolve", "selectColumns", "unique", "withColumn",
}

// knownSourceKinds lists every source kind Build accepts.
var knownSourceKinds = []string{"csv", "parallelize", "text"}

// knownSinkKinds lists every sink kind Build accepts.
var knownSinkKinds = []string{"aggregate", "collect", "csv", "take"}

// DecodeError reports every structural problem a strict decode found —
// all unknown fields across the whole document (join build sides and
// nested UDF objects included) plus a version mismatch — so one round
// trip surfaces the complete list instead of only the first offender.
type DecodeError struct {
	// Problems are the individual findings, each prefixed with its
	// location ("ops[2]", "ops[1].build.source", ...).
	Problems []string
}

func (e *DecodeError) Error() string {
	if len(e.Problems) == 1 {
		return "spec: " + e.Problems[0]
	}
	return fmt.Sprintf("spec: %d problems: %s", len(e.Problems), strings.Join(e.Problems, "; "))
}

// Decode parses a versioned pipeline spec strictly: unknown fields,
// unknown spec versions and malformed JSON all error with context.
// Structural problems accumulate into a *DecodeError listing every
// unknown field in the document, not just the first. Numbers decode as
// json.Number so integer globals stay integers.
func Decode(data []byte) (*Pipeline, error) {
	var raw any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("spec: invalid pipeline JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after pipeline JSON")
	}
	if problems := scanPipeline(raw, ""); len(problems) > 0 {
		return nil, &DecodeError{Problems: problems}
	}
	dec = json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var p Pipeline
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("spec: invalid pipeline JSON: %w", err)
	}
	normalizeNumbers(&p)
	return &p, nil
}

// Known field sets per wire struct, for the accumulating structural
// scan. These must track the json tags above.
var (
	pipelineFields = map[string]bool{"v": true, "source": true, "ops": true, "sink": true, "options": true}
	sourceFields   = map[string]bool{"kind": true, "path": true, "data": true, "delim": true, "header": true,
		"columns": true, "null_values": true, "rows": true, "column": true}
	opFields = map[string]bool{"kind": true, "udf": true, "col": true, "old": true, "new": true, "cols": true,
		"exc": true, "build": true, "left_key": true, "right_key": true, "left": true,
		"left_prefix": true, "right_prefix": true, "agg": true, "comb": true, "initial": true}
	udfFields  = map[string]bool{"code": true, "globals": true}
	sinkFields = map[string]bool{"kind": true, "n": true, "path": true, "agg": true, "comb": true, "initial": true}
	optFields  = map[string]bool{"executors": true, "partition_rows": true, "sample_size": true,
		"null_threshold": true, "null_optimization": true, "projection_pushdown": true,
		"filter_pushdown": true, "join_reorder": true, "stage_fusion": true,
		"compiler_optimizations": true, "seed": true, "columnar": true,
		"chunk_size": true}
)

// scanPipeline walks the generic JSON form of one pipeline (path "" for
// the top level, "ops[i].build" for join build sides) and returns every
// structural problem. Unknown operator/source/sink kinds are not decode
// problems — Build and the static verifier report those with the full
// known-kind list — so a spec with only a bad kind still decodes.
func scanPipeline(v any, path string) []string {
	m, ok := v.(map[string]any)
	if !ok {
		return []string{locate(path, "pipeline") + " must be a JSON object"}
	}
	ps := unknownFieldProblems(m, pipelineFields, path)
	if path == "" {
		ver := 0
		if n, ok := m["v"].(json.Number); ok {
			if i, err := n.Int64(); err == nil {
				ver = int(i)
			}
		}
		if ver != Version {
			ps = append(ps, fmt.Sprintf("unsupported spec version %d (this build reads \"v\": %d)", ver, Version))
		}
	}
	if s, ok := m["source"]; ok {
		ps = append(ps, scanFlatObject(s, sourceFields, childPath(path, "source"))...)
	}
	if ops, ok := m["ops"].([]any); ok {
		for i, o := range ops {
			ps = append(ps, scanOp(o, fmt.Sprintf("%s[%d]", childPath(path, "ops"), i))...)
		}
	}
	if s, ok := m["sink"]; ok {
		sp := childPath(path, "sink")
		ps = append(ps, scanFlatObject(s, sinkFields, sp)...)
		if sm, ok := s.(map[string]any); ok {
			for _, f := range []string{"agg", "comb"} {
				if u, ok := sm[f]; ok {
					ps = append(ps, scanFlatObject(u, udfFields, sp+"."+f)...)
				}
			}
		}
	}
	if o, ok := m["options"]; ok {
		ps = append(ps, scanFlatObject(o, optFields, childPath(path, "options"))...)
	}
	return ps
}

func scanOp(v any, path string) []string {
	m, ok := v.(map[string]any)
	if !ok {
		return []string{path + ": op must be a JSON object"}
	}
	ps := unknownFieldProblems(m, opFields, path)
	for _, f := range []string{"udf", "agg", "comb"} {
		if u, ok := m[f]; ok {
			ps = append(ps, scanFlatObject(u, udfFields, path+"."+f)...)
		}
	}
	if b, ok := m["build"]; ok {
		ps = append(ps, scanPipeline(b, path+".build")...)
	}
	return ps
}

// scanFlatObject checks one leaf object's field names.
func scanFlatObject(v any, known map[string]bool, path string) []string {
	m, ok := v.(map[string]any)
	if !ok {
		return []string{path + " must be a JSON object"}
	}
	return unknownFieldProblems(m, known, path)
}

// unknownFieldProblems lists the map's unknown keys, sorted so the
// report is deterministic.
func unknownFieldProblems(m map[string]any, known map[string]bool, path string) []string {
	var bad []string
	for k := range m {
		if !known[k] {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	var ps []string
	for _, k := range bad {
		ps = append(ps, fmt.Sprintf("%s: unknown field %q", locate(path, "pipeline"), k))
	}
	return ps
}

func locate(path, topName string) string {
	if path == "" {
		return topName
	}
	return path
}

func childPath(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

// Encode renders the pipeline as stable, versioned JSON. Field order is
// fixed by the struct layout and map keys (globals) sort, so encoding
// the same pipeline always yields the same bytes — the property the
// cache key and the golden-file tests rely on.
func (p *Pipeline) Encode() ([]byte, error) {
	cp := *p
	cp.V = Version
	out, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("spec: encoding pipeline: %w", err)
	}
	return out, nil
}

// EncodeIndent is Encode with human-friendly indentation (used by the
// golden files and tuplex-run's plan dump).
func (p *Pipeline) EncodeIndent() ([]byte, error) {
	compact, err := p.Encode()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// normalizeNumbers rewrites json.Number leaves into int64/float64
// throughout the pipeline's value positions (globals, inline rows,
// aggregate initial), so downstream boxing sees concrete Go numbers and
// re-encoding round-trips "1" as 1, not 1.0.
func normalizeNumbers(p *Pipeline) {
	if p == nil {
		return
	}
	for i := range p.Source.Rows {
		for j, v := range p.Source.Rows[i] {
			p.Source.Rows[i][j] = normalizeValue(v)
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		normalizeUDF(op.UDF)
		normalizeUDF(op.Agg)
		normalizeUDF(op.Comb)
		op.Initial = normalizeValue(op.Initial)
		normalizeNumbers(op.Build)
	}
	normalizeUDF(p.Sink.Agg)
	normalizeUDF(p.Sink.Comb)
	p.Sink.Initial = normalizeValue(p.Sink.Initial)
}

func normalizeUDF(u *UDF) {
	if u == nil {
		return
	}
	for k, v := range u.Globals {
		u.Globals[k] = normalizeValue(v)
	}
}

// normalizeValue converts json.Number (and nested containers holding
// them) to int64 where exact, float64 otherwise.
func normalizeValue(v any) any {
	switch v := v.(type) {
	case json.Number:
		if !strings.ContainsAny(v.String(), ".eE") {
			if n, err := v.Int64(); err == nil {
				return n
			}
		}
		f, _ := v.Float64()
		return f
	case []any:
		for i, it := range v {
			v[i] = normalizeValue(it)
		}
		return v
	case map[string]any:
		for k, it := range v {
			v[k] = normalizeValue(it)
		}
		return v
	default:
		return v
	}
}

// unknownKindError builds the "got X, want one of ..." error text shared
// by source/op/sink validation.
func unknownKindError(what, got string, known []string) error {
	sorted := append([]string(nil), known...)
	sort.Strings(sorted)
	return fmt.Errorf("spec: unknown %s kind %q (known kinds: %s)", what, got, strings.Join(sorted, ", "))
}
