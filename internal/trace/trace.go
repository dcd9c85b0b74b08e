// Package trace is the engine's run-scoped observability layer: a
// Tracer threaded through core.Execute records hierarchical spans
// (plan → per-stage sample/compile/execute/resolve → sink) with wall
// times, per-executor task timings, and — at the higher levels — the
// row-routing ledger that explains where every row went (normal /
// general / fallback / resolver path per operator, §5) plus a bounded
// sample of exception rows for debugging dirty data.
//
// Cost contract: the span tree itself allocates O(stages), never per
// row. At LevelSpans (the default) the compiled normal path is built
// without any tracing instrumentation, so hot loops are byte-for-byte
// the untraced ones — zero allocations and zero extra work per row. At
// LevelRows each operator step additionally increments one slot of a
// per-task scratch counter array (no atomics, no allocation); the
// arrays merge once at stage finish. Exception-path accounting uses
// shared atomics, which is fine because exception rows are rare by
// construction. LevelSamples additionally retains up to MaxExcSamples
// rendered exception rows per stage.
//
// The Tracer's span stack is driven by the serial engine driver only
// (stage execution is parallel, but span begin/end is not); per-task
// data is gathered into spans after the workers join, so no locking is
// needed. All exported span fields are plain values with stable JSON
// tags — the public tuplex.Trace view marshals them round-trip exactly.
package trace

import (
	"strconv"
	"time"
)

// Level selects how much a run records.
type Level uint8

const (
	// LevelOff disables tracing entirely (Result.Trace is nil).
	LevelOff Level = iota
	// LevelSpans records the span tree, per-stage aggregates and
	// per-task timings. This is the default: zero per-row overhead.
	LevelSpans
	// LevelRows additionally records the per-operator row-routing
	// ledger (one counter increment per operator per row, no
	// allocations).
	LevelRows
	// LevelSamples additionally retains a bounded sample of exception
	// rows (kind, operator, rendered input, outcome) per stage.
	LevelSamples
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelSpans:
		return "spans"
	case LevelRows:
		return "rows"
	case LevelSamples:
		return "samples"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// MaxExcSamples bounds the per-stage exception-row sample at
// LevelSamples.
const MaxExcSamples = 16

// MaxSampleInput bounds the rendered input of one sampled exception row.
const MaxSampleInput = 160

// Attr is one key/value annotation on a span. Values are strings so the
// JSON form is stable and round-trips exactly.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Val: strconv.FormatBool(v)} }

// TaskTiming is one executor task (one partition / one streamed chunk)
// within a stage's execute phase.
type TaskTiming struct {
	// Part is the partition index the task processed.
	Part int `json:"part"`
	// Worker is the executor slot that ran the task.
	Worker int `json:"worker"`
	// Rows is the number of input rows the task consumed.
	Rows int64 `json:"rows"`
	// StartNS is the task start, as nanoseconds since the run started.
	StartNS int64 `json:"start_ns"`
	// DurNS is the task wall time in nanoseconds.
	DurNS int64 `json:"dur_ns"`
}

// OpRouting is the row-routing ledger entry for one operator: where its
// rows went across the engine's paths (§5). Index 0 of a stage's ledger
// is the source/parse pseudo-operator and the last entry is the stage
// terminal; entries in between follow the stage's operator order.
//
// Attribution contract: every pooled exception row is attributed to the
// operator that raised it on the normal path (or to the source entry
// for classifier/parse rejects and rows carried over from the previous
// stage's exception paths); its eventual outcome — resolved on the
// general path, the fallback interpreter, by a user resolver, ignored,
// or failed — is counted on that same entry, so per-stage ledger totals
// reconcile exactly with the run's Metrics path counters.
type OpRouting struct {
	// Op names the operator ("source", "map", "join(code)", ...).
	Op string `json:"op"`
	// NormalIn counts rows entering this operator on the compiled
	// normal path (recorded at LevelRows and above).
	NormalIn int64 `json:"normal_in"`
	// NormalExc counts rows that raised at this operator on the normal
	// path (including classifier rejects on the source entry).
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
	// Bounced counts rows that left the columnar batch plane at this
	// operator (the stage barrier) and finished on the row bridge.
	Bounced int64 `json:"bounced,omitempty"`
	// Rejects says why the source entry's classifier rejects left the
	// normal case: counts keyed "<column> <sampled type>←<cell kind>" by
	// the first cell of each rejected record that did not parse as its
	// sampled type (the cell kind as the general path reads it: empty,
	// null, bool, int, float or str), or "ragged" for a wrong cell count.
	Rejects map[string]int64 `json:"rejects,omitempty"`
}

// Zero reports whether the entry recorded no activity.
func (r OpRouting) Zero() bool {
	return r.NormalIn == 0 && r.NormalExc == 0 && r.GeneralIn == 0 && r.FallbackIn == 0 &&
		r.GeneralResolved == 0 && r.FallbackResolved == 0 && r.ResolverResolved == 0 &&
		r.Ignored == 0 && r.Failed == 0 && r.Bounced == 0 && len(r.Rejects) == 0
}

// ExcSample is one retained exception row (LevelSamples).
type ExcSample struct {
	// Op is the operator the row raised at (ledger attribution).
	Op string `json:"op"`
	// Exc is the Python exception class raised on the normal path.
	Exc string `json:"exc"`
	// Input is the rendered input row, truncated to MaxSampleInput.
	Input string `json:"input"`
	// Outcome is "general", "fallback", "resolver", "ignored" or
	// "failed".
	Outcome string `json:"outcome"`
}

// Span is one node of the trace tree.
type Span struct {
	Name    string `json:"name"`
	Attrs   []Attr `json:"attrs,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	// Tasks holds per-executor task timings (execute spans).
	Tasks []TaskTiming `json:"tasks,omitempty"`
	// Routing is the stage's row-routing ledger (stage spans,
	// LevelRows+).
	Routing []OpRouting `json:"routing,omitempty"`
	// Samples holds retained exception rows (stage spans, LevelSamples).
	Samples  []ExcSample `json:"samples,omitempty"`
	Children []*Span     `json:"children,omitempty"`
}

// Add appends attributes; nil-safe so callers need no tracer checks.
func (s *Span) Add(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Trace is one finished run.
type Trace struct {
	Level Level `json:"level"`
	Root  *Span `json:"root"`
}

// Tracer records one run. A nil *Tracer is the disabled tracer: every
// method is a no-op, so call sites never branch on the level for span
// work (only per-row instrumentation checks Rows/Samples up front).
type Tracer struct {
	level Level
	t0    time.Time
	root  *Span
	stack []*Span
}

// New returns a Tracer for the level, or nil when tracing is off.
func New(level Level) *Tracer {
	if level <= LevelOff {
		return nil
	}
	t := &Tracer{level: level, t0: time.Now()}
	t.root = &Span{Name: "run"}
	t.stack = []*Span{t.root}
	return t
}

// Level reports the tracer's level (LevelOff for nil).
func (t *Tracer) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.level
}

// Rows reports whether the row-routing ledger is recorded.
func (t *Tracer) Rows() bool { return t.Level() >= LevelRows }

// Samples reports whether exception rows are sampled.
func (t *Tracer) Samples() bool { return t.Level() >= LevelSamples }

// OffsetNS converts an absolute time to nanoseconds since run start.
func (t *Tracer) OffsetNS(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.t0).Nanoseconds()
}

func (t *Tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// Begin opens a child span of the current span and makes it current.
// Must be called from the serial engine driver only.
func (t *Tracer) Begin(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, Attrs: attrs, StartNS: t.now()}
	parent := t.stack[len(t.stack)-1]
	parent.Children = append(parent.Children, s)
	t.stack = append(t.stack, s)
	return s
}

// End closes a span opened by Begin, restoring its parent as current.
func (t *Tracer) End(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.DurNS = t.now() - s.StartNS
	for i := len(t.stack) - 1; i > 0; i-- {
		if t.stack[i] == s {
			t.stack = t.stack[:i]
			return
		}
	}
}

// Child attaches an already-measured span (duration d, ending now) to
// the current span without making it current.
func (t *Tracer) Child(name string, d time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, Attrs: attrs, StartNS: t.now() - d.Nanoseconds(), DurNS: d.Nanoseconds()}
	cur := t.stack[len(t.stack)-1]
	cur.Children = append(cur.Children, s)
	return s
}

// Finish closes the run and returns the trace (nil for the nil tracer).
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.root.DurNS = t.now()
	return &Trace{Level: t.level, Root: t.root}
}
