package tuplex

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/trace"
)

// TraceLevel selects how much observability a run records (see
// WithTracing).
type TraceLevel uint8

const (
	// TraceOff disables tracing entirely (Result.Trace is nil).
	TraceOff = TraceLevel(trace.LevelOff)
	// TraceSpans records the span tree with wall times and per-executor
	// task timings. This is the default; it adds zero per-row work.
	TraceSpans = TraceLevel(trace.LevelSpans)
	// TraceRows additionally records the per-operator row-routing ledger:
	// for every operator, how many rows entered it on the normal /
	// general / fallback paths and how its exception rows were resolved.
	TraceRows = TraceLevel(trace.LevelRows)
	// TraceSamples additionally retains a bounded sample of exception
	// rows (exception kind, operator, rendered input, outcome) per stage.
	TraceSamples = TraceLevel(trace.LevelSamples)
)

// String names the level.
func (l TraceLevel) String() string { return trace.Level(l).String() }

// WithTracing sets the run's observability level. The default is
// TraceSpans; use TraceRows or TraceSamples to see where rows went, or
// TraceOff to disable the tracer.
func WithTracing(level TraceLevel) Option {
	return Option{apply: func(o *core.Options) { o.Trace = trace.Level(level) }}
}

// Trace is the run-scoped observability record: a tree of spans (plan →
// per-stage sample/compile/execute/resolve → sink) with wall times,
// per-executor task timings and — at TraceRows and above — the
// row-routing ledger explaining where every row went. Its JSON form is
// stable and round-trips exactly; String() renders a human-readable
// tree.
type Trace struct {
	Level TraceLevel `json:"level"`
	Root  *Span      `json:"root"`
}

// Span is one node of the trace tree.
type Span struct {
	// Name identifies the phase ("run", "stage", "execute", ...).
	Name string `json:"name"`
	// Attrs annotate the span (stage index, output rows, ...).
	Attrs []TraceAttr `json:"attrs,omitempty"`
	// StartNS / DurNS position the span in nanoseconds since run start.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Tasks holds per-executor task timings (execute spans).
	Tasks []TaskTiming `json:"tasks,omitempty"`
	// Routing is the stage's row-routing ledger (stage spans, TraceRows+).
	Routing []OpRouting `json:"routing,omitempty"`
	// Samples holds retained exception rows (stage spans, TraceSamples).
	Samples []ExceptionSample `json:"samples,omitempty"`
	// Children are the nested spans in start order.
	Children []*Span `json:"children,omitempty"`
}

// TraceAttr is one key/value annotation on a span.
type TraceAttr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// TaskTiming is one executor task (one partition or one streamed chunk)
// within a stage's execute phase.
type TaskTiming struct {
	// Part is the partition index the task processed.
	Part int `json:"part"`
	// Worker is the executor slot that ran the task.
	Worker int `json:"worker"`
	// Rows is the number of input rows the task consumed.
	Rows int64 `json:"rows"`
	// StartNS / DurNS position the task in nanoseconds since run start.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// OpRouting is one operator's row-routing ledger entry: where its rows
// went across the engine's paths. Entry 0 of a stage's ledger is the
// source/parse pseudo-operator and the last entry is the stage terminal.
// Rows that raise on the normal path are attributed to the operator that
// raised, and their eventual outcome (resolved on the general path, the
// interpreter fallback, by a user resolver, ignored, or failed) is
// counted on that same entry — so the ledger reconciles with Metrics.
type OpRouting struct {
	// Op names the operator ("source", "map", "join(code)", ...).
	Op string `json:"op"`
	// NormalIn counts rows entering this operator on the compiled
	// normal path (TraceRows and above).
	NormalIn int64 `json:"normal_in"`
	// NormalExc counts rows that raised at this operator on the normal
	// path (classifier/parse rejects land on the source entry).
	NormalExc int64 `json:"normal_exc"`
	// GeneralIn / FallbackIn count rows entering this operator on the
	// compiled general path / the interpreter fallback path.
	GeneralIn  int64 `json:"general_in"`
	FallbackIn int64 `json:"fallback_in"`
	// GeneralResolved / FallbackResolved / ResolverResolved count rows
	// raised at this operator that the respective path recovered.
	GeneralResolved  int64 `json:"general_resolved"`
	FallbackResolved int64 `json:"fallback_resolved"`
	ResolverResolved int64 `json:"resolver_resolved"`
	// Ignored / Failed count rows raised at this operator that an
	// ignore() handler dropped / that no path could process.
	Ignored int64 `json:"ignored"`
	Failed  int64 `json:"failed"`
	// Rejects says why the source entry's classifier rejects left the
	// normal case: counts keyed "<column> <sampled type>←<cell kind>" by
	// the first cell of each rejected record that did not parse as its
	// sampled type (the cell kind as the general path reads it: empty,
	// null, bool, int, float or str), or "ragged" for a wrong cell count.
	Rejects map[string]int64 `json:"rejects,omitempty"`
}

// ExceptionSample is one retained exception row (TraceSamples).
type ExceptionSample struct {
	// Op is the operator the row raised at.
	Op string `json:"op"`
	// Exc is the Python exception class raised on the normal path.
	Exc string `json:"exc"`
	// Input is the rendered input row (truncated).
	Input string `json:"input"`
	// Outcome is "general", "fallback", "resolver", "ignored" or
	// "failed".
	Outcome string `json:"outcome"`
}

// newTrace converts the engine's internal trace into the public view.
func newTrace(t *trace.Trace) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Level: TraceLevel(t.Level), Root: newSpan(t.Root)}
}

func newSpan(s *trace.Span) *Span {
	if s == nil {
		return nil
	}
	out := &Span{Name: s.Name, StartNS: s.StartNS, DurNS: s.DurNS}
	for _, a := range s.Attrs {
		out.Attrs = append(out.Attrs, TraceAttr{Key: a.Key, Val: a.Val})
	}
	for _, t := range s.Tasks {
		out.Tasks = append(out.Tasks, TaskTiming{
			Part: t.Part, Worker: t.Worker, Rows: t.Rows,
			StartNS: t.StartNS, DurNS: t.DurNS,
		})
	}
	for _, r := range s.Routing {
		out.Routing = append(out.Routing, OpRouting(r))
	}
	for _, e := range s.Samples {
		out.Samples = append(out.Samples, ExceptionSample(e))
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, newSpan(c))
	}
	return out
}

// toInternal converts the public view back into the engine's internal
// representation (the exact inverse of newTrace; the two forms share
// JSON tags, so this is field-for-field).
func (t *Trace) toInternal() *trace.Trace {
	if t == nil {
		return nil
	}
	return &trace.Trace{Level: trace.Level(t.Level), Root: toInternalSpan(t.Root)}
}

func toInternalSpan(s *Span) *trace.Span {
	if s == nil {
		return nil
	}
	out := &trace.Span{Name: s.Name, StartNS: s.StartNS, DurNS: s.DurNS}
	for _, a := range s.Attrs {
		out.Attrs = append(out.Attrs, trace.Attr{Key: a.Key, Val: a.Val})
	}
	for _, t := range s.Tasks {
		out.Tasks = append(out.Tasks, trace.TaskTiming{
			Part: t.Part, Worker: t.Worker, Rows: t.Rows,
			StartNS: t.StartNS, DurNS: t.DurNS,
		})
	}
	for _, r := range s.Routing {
		out.Routing = append(out.Routing, trace.OpRouting(r))
	}
	for _, e := range s.Samples {
		out.Samples = append(out.Samples, trace.ExcSample(e))
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, toInternalSpan(c))
	}
	return out
}

// MarshalChrome renders the trace as a Chrome trace-event JSON document
// loadable in chrome://tracing or https://ui.perfetto.dev: spans become
// nested complete events on a driver track, per-executor task timings
// become swimlanes, and routing ledgers / exception samples land in the
// event args panel.
func (t *Trace) MarshalChrome() ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("tuplex: no trace recorded (tracing off?)")
	}
	return t.toInternal().MarshalChrome()
}

// ParseTrace decodes a trace's native JSON form (the output of
// json.Marshal on Trace, or GET /v1/jobs/{id}/trace). The span tree
// round-trips exactly.
func ParseTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tuplex: parsing trace JSON: %w", err)
	}
	return &t, nil
}

// String renders the trace as a human-readable tree:
//
//	run 12.4ms
//	├─ plan 10µs optimized=true
//	├─ stage 11.0ms index=0 ops=2
//	│  ├─ sample 1.2ms
//	│  ├─ compile 300µs udfs=2
//	//	...
//	└─ sink 140µs kind=collect output_rows=990
func (t *Trace) String() string {
	if t == nil || t.Root == nil {
		return "trace: (empty)"
	}
	var sb strings.Builder
	renderSpan(&sb, t.Root, "", "")
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, head, tail string) {
	sb.WriteString(head)
	sb.WriteString(s.Name)
	fmt.Fprintf(sb, " %s", fmtDur(s.DurNS))
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Val)
	}
	if n := len(s.Tasks); n > 0 {
		workers := map[int]bool{}
		var rows int64
		for _, t := range s.Tasks {
			workers[t.Worker] = true
			rows += t.Rows
		}
		fmt.Fprintf(sb, " [%d tasks, %d workers, %d rows]", n, len(workers), rows)
	}
	sb.WriteByte('\n')
	for _, r := range s.Routing {
		if trace.OpRouting(r).Zero() {
			continue
		}
		fmt.Fprintf(sb, "%s· %-12s", tail, r.Op)
		writeCount(sb, "normal", r.NormalIn)
		writeCount(sb, "exc", r.NormalExc)
		writeCount(sb, "general", r.GeneralIn)
		writeCount(sb, "fallback", r.FallbackIn)
		writeCount(sb, "general_ok", r.GeneralResolved)
		writeCount(sb, "fallback_ok", r.FallbackResolved)
		writeCount(sb, "resolver_ok", r.ResolverResolved)
		writeCount(sb, "ignored", r.Ignored)
		writeCount(sb, "failed", r.Failed)
		sb.WriteByte('\n')
		if len(r.Rejects) > 0 {
			why := make([]string, 0, len(r.Rejects))
			for k := range r.Rejects {
				why = append(why, k)
			}
			sort.Strings(why)
			for i, k := range why {
				why[i] = fmt.Sprintf("%s=%d", k, r.Rejects[k])
			}
			fmt.Fprintf(sb, "%s  rejects: %s\n", tail, strings.Join(why, " "))
		}
	}
	for _, e := range s.Samples {
		fmt.Fprintf(sb, "%s! %s at %s (%s): %s\n", tail, e.Exc, e.Op, e.Outcome, e.Input)
	}
	for i, c := range s.Children {
		branch, cont := "├─ ", "│  "
		if i == len(s.Children)-1 {
			branch, cont = "└─ ", "   "
		}
		renderSpan(sb, c, tail+branch, tail+cont)
	}
}

func writeCount(sb *strings.Builder, label string, n int64) {
	if n != 0 {
		fmt.Fprintf(sb, " %s=%d", label, n)
	}
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}
