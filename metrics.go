package tuplex

import (
	"fmt"
	"strings"
	"time"

	"github.com/gotuplex/tuplex/internal/metrics"
)

// Metrics is the public, stable view of one run's execution statistics:
// per-path row counts, phase timings, ingest/join figures and per-stage
// throughput. Unlike the engine's internal counters it is a plain value
// snapshot — every field is exported, JSON-tagged, and nameable by
// external modules. Durations marshal as integer nanoseconds, so the
// JSON form round-trips exactly.
type Metrics struct {
	// Rows tallies rows by the path that produced them (§5).
	Rows RowCounts `json:"rows"`
	// Timings records the run's phase wall times.
	Timings PhaseTimings `json:"timings"`
	// Ingest tallies the streaming ingest path.
	Ingest IngestMetrics `json:"ingest"`
	// Join tallies hash-join build and probe activity.
	Join JoinMetrics `json:"join"`
	// Batch tallies the columnar batch plane (§7).
	Batch BatchMetrics `json:"batch"`
	// Stages holds per-stage throughput figures in execution order.
	Stages []StageMetrics `json:"stages,omitempty"`
	// NumStages is the number of generated stages.
	NumStages int `json:"num_stages"`
	// Latency holds telemetry latency quantiles (all zero unless the run
	// used WithTelemetry or an introspection server was active).
	Latency LatencyMetrics `json:"latency"`
}

// RowCounts tallies rows by execution path.
type RowCounts struct {
	// Input is the number of input records read.
	Input int64 `json:"input"`
	// Normal completed entirely on the compiled normal-case path.
	Normal int64 `json:"normal"`
	// ClassifierRejects failed the row classifier / generated parser.
	ClassifierRejects int64 `json:"classifier_rejects"`
	// NormalPathExceptions raised while running normal-case code.
	NormalPathExceptions int64 `json:"normal_path_exceptions"`
	// GeneralResolved were recovered by the compiled general-case path.
	GeneralResolved int64 `json:"general_resolved"`
	// FallbackResolved were recovered by the interpreter fallback path.
	FallbackResolved int64 `json:"fallback_resolved"`
	// ResolverResolved were recovered by user-provided resolvers.
	ResolverResolved int64 `json:"resolver_resolved"`
	// Ignored were dropped by user-provided ignore() handlers.
	Ignored int64 `json:"ignored"`
	// Failed could not be processed by any path.
	Failed int64 `json:"failed"`
	// Output reached the sink.
	Output int64 `json:"output"`
}

// ExceptionRate reports the fraction of input rows that left the normal
// path.
func (r RowCounts) ExceptionRate() float64 {
	if r.Input == 0 {
		return 0
	}
	return float64(r.ClassifierRejects+r.NormalPathExceptions) / float64(r.Input)
}

// PhaseTimings records the phases of a run. Durations marshal as
// integer nanoseconds.
type PhaseTimings struct {
	Sample   time.Duration `json:"sample_ns"`
	Optimize time.Duration `json:"optimize_ns"`
	Compile  time.Duration `json:"compile_ns"`
	Execute  time.Duration `json:"execute_ns"`
	Resolve  time.Duration `json:"resolve_ns"`
	Total    time.Duration `json:"total_ns"`
}

// IngestMetrics tallies the streaming ingest path (§4.4).
type IngestMetrics struct {
	// BytesRead is the raw input bytes consumed (all source files).
	BytesRead int64 `json:"bytes_read"`
	// RecordsSplit is the number of records the boundary scan produced.
	RecordsSplit int64 `json:"records_split"`
}

// JoinMetrics tallies the sharded hash-join kernels (§4.5).
type JoinMetrics struct {
	// BuildTables is the number of join build tables constructed.
	BuildTables int64 `json:"build_tables"`
	// BuildRows is the number of normal-path rows hashed into shards.
	BuildRows int64 `json:"build_rows"`
	// GeneralRows is the number of exception-path build rows kept boxed.
	GeneralRows int64 `json:"general_rows"`
	// ProbeHits / ProbeMisses count probe rows that found / did not find
	// a build match.
	ProbeHits   int64 `json:"probe_hits"`
	ProbeMisses int64 `json:"probe_misses"`
	// Shards is the per-table shard count.
	Shards int64 `json:"shards"`
	// MaxShardRows is the largest shard's row count over all tables.
	MaxShardRows int64 `json:"max_shard_rows"`
}

// ShardBalance reports the largest shard's load relative to a perfectly
// even spread (1.0 = balanced; 0 when no rows were hashed).
func (j JoinMetrics) ShardBalance() float64 {
	if j.BuildRows == 0 || j.Shards == 0 {
		return 0
	}
	return float64(j.MaxShardRows) / (float64(j.BuildRows) / float64(j.Shards))
}

// HitRate reports the fraction of probed rows that matched.
func (j JoinMetrics) HitRate() float64 {
	n := j.ProbeHits + j.ProbeMisses
	if n == 0 {
		return 0
	}
	return float64(j.ProbeHits) / float64(n)
}

// BatchMetrics tallies the columnar batch plane every stage runs on:
// the rows that completed their stage's kernels, plus kernel-fusion,
// null-check-elision and vector-program activity.
type BatchMetrics struct {
	// ColumnarRows counts rows that completed their stage's kernels on
	// the batch plane.
	ColumnarRows int64 `json:"columnar_rows"`
	// FusedPasses counts fused kernel-group executions (one scan over a
	// batch's selection vector, however many adjacent ops it covers).
	FusedPasses int64 `json:"fused_passes"`
	// NullElisions / NullChecked count per-batch argument-dispatch
	// decisions: a column bound with the no-null inner loop versus one
	// that kept its per-row null check.
	NullElisions int64 `json:"null_elisions"`
	NullChecked  int64 `json:"null_checked"`
	// VectorRows counts rows entering a vector-at-a-time expression
	// kernel or aggregate fold (once per kernel); VectorBailRows those a
	// kernel handed back to the row-at-a-time closure (null operand, zero
	// divisor, guard miss).
	VectorRows     int64 `json:"vector_rows"`
	VectorBailRows int64 `json:"vector_bail_rows"`
}

// ElisionRate reports the fraction of batch argument bindings that
// skipped per-row null checks.
func (b BatchMetrics) ElisionRate() float64 {
	n := b.NullElisions + b.NullChecked
	if n == 0 {
		return 0
	}
	return float64(b.NullElisions) / float64(n)
}

// LatencyMetrics bundles the run's latency distributions, recorded by
// the telemetry histograms (see WithTelemetry).
type LatencyMetrics struct {
	// Chunk is per-task processing wall time: one partition or one
	// streamed chunk per observation.
	Chunk LatencySummary `json:"chunk"`
	// Resolve is per-exception-row resolve wall time.
	Resolve LatencySummary `json:"resolve"`
}

// LatencySummary reports quantiles of one latency distribution.
// Quantiles are bucket upper bounds with at most 6.25% relative error;
// durations marshal as integer nanoseconds.
type LatencySummary struct {
	// Count is the number of recorded observations.
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// StageMetrics is one stage's throughput figures.
type StageMetrics struct {
	// Stage is the stage index within the run.
	Stage int `json:"stage"`
	// Bytes read from disk during this stage (0 for non-source stages).
	Bytes int64 `json:"bytes"`
	// Records consumed as stage input.
	Records int64 `json:"records"`
	// Allocs is the number of heap allocations during the stage's
	// execute phase (runtime mallocs delta).
	Allocs int64 `json:"allocs"`
	// Duration is the stage's execute-phase wall clock (nanoseconds in
	// JSON).
	Duration time.Duration `json:"duration_ns"`
}

// RowsPerSec reports stage-input rows per second.
func (s StageMetrics) RowsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Records) / s.Duration.Seconds()
}

// MBPerSec reports raw ingest throughput in MB/s (0 when the stage read
// no bytes).
func (s StageMetrics) MBPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / 1e6 / s.Duration.Seconds()
}

// newMetrics snapshots the engine's internal counters into the public
// view.
func newMetrics(m *metrics.Metrics) *Metrics {
	if m == nil {
		return nil
	}
	c := &m.Counters
	out := &Metrics{
		Rows: RowCounts{
			Input:                c.InputRows.Load(),
			Normal:               c.NormalRows.Load(),
			ClassifierRejects:    c.ClassifierRejects.Load(),
			NormalPathExceptions: c.NormalPathExceptions.Load(),
			GeneralResolved:      c.GeneralResolved.Load(),
			FallbackResolved:     c.FallbackResolved.Load(),
			ResolverResolved:     c.ResolverResolved.Load(),
			Ignored:              c.IgnoredRows.Load(),
			Failed:               c.FailedRows.Load(),
			Output:               c.OutputRows.Load(),
		},
		Timings: PhaseTimings{
			Sample:   m.Timings.Sample,
			Optimize: m.Timings.Optimize,
			Compile:  m.Timings.Compile,
			Execute:  m.Timings.Execute,
			Resolve:  m.Timings.Resolve,
			Total:    m.Timings.Total,
		},
		Ingest: IngestMetrics{
			BytesRead:    m.Ingest.BytesRead.Load(),
			RecordsSplit: m.Ingest.RecordsSplit.Load(),
		},
		Join: JoinMetrics{
			BuildTables:  m.Join.BuildTables.Load(),
			BuildRows:    m.Join.BuildRows.Load(),
			GeneralRows:  m.Join.GeneralRows.Load(),
			ProbeHits:    m.Join.ProbeHits.Load(),
			ProbeMisses:  m.Join.ProbeMisses.Load(),
			Shards:       m.Join.Shards.Load(),
			MaxShardRows: m.Join.MaxShardRows.Load(),
		},
		Batch: BatchMetrics{
			ColumnarRows: m.Batch.ColumnarRows.Load(),
			FusedPasses:  m.Batch.FusedPasses.Load(),
			NullElisions: m.Batch.NullElisions.Load(),
			NullChecked:  m.Batch.NullChecked.Load(),

			VectorRows:     m.Batch.VectorRows.Load(),
			VectorBailRows: m.Batch.VectorBailRows.Load(),
		},
		NumStages: m.Stages,
		Latency: LatencyMetrics{
			Chunk:   newLatencySummary(m.Latency.Chunk),
			Resolve: newLatencySummary(m.Latency.Resolve),
		},
	}
	for _, s := range m.Stage {
		out.Stages = append(out.Stages, StageMetrics{
			Stage: s.Stage, Bytes: s.Bytes, Records: s.Records,
			Allocs: s.Allocs, Duration: s.Duration,
		})
	}
	return out
}

func newLatencySummary(s metrics.LatencySummary) LatencySummary {
	return LatencySummary{Count: s.Count, P50: s.P50, P90: s.P90, P99: s.P99, Max: s.Max}
}

// String renders a compact single-run summary.
func (m *Metrics) String() string {
	var sb strings.Builder
	r := m.Rows
	fmt.Fprintf(&sb, "rows: in=%d out=%d normal=%d", r.Input, r.Output, r.Normal)
	if r.ClassifierRejects > 0 {
		fmt.Fprintf(&sb, " classifier_rejects=%d", r.ClassifierRejects)
	}
	if r.NormalPathExceptions > 0 {
		fmt.Fprintf(&sb, " normal_exceptions=%d", r.NormalPathExceptions)
	}
	if r.GeneralResolved > 0 {
		fmt.Fprintf(&sb, " general_resolved=%d", r.GeneralResolved)
	}
	if r.FallbackResolved > 0 {
		fmt.Fprintf(&sb, " fallback_resolved=%d", r.FallbackResolved)
	}
	if r.ResolverResolved > 0 {
		fmt.Fprintf(&sb, " resolver_resolved=%d", r.ResolverResolved)
	}
	if r.Ignored > 0 {
		fmt.Fprintf(&sb, " ignored=%d", r.Ignored)
	}
	if r.Failed > 0 {
		fmt.Fprintf(&sb, " failed=%d", r.Failed)
	}
	roundT := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	fmt.Fprintf(&sb, " | sample=%s compile=%s exec=%s resolve=%s total=%s",
		roundT(m.Timings.Sample), roundT(m.Timings.Compile), roundT(m.Timings.Execute),
		roundT(m.Timings.Resolve), roundT(m.Timings.Total))
	if m.Ingest.BytesRead > 0 {
		fmt.Fprintf(&sb, " | ingest: %.1f MB, %d records", float64(m.Ingest.BytesRead)/1e6, m.Ingest.RecordsSplit)
	}
	if j := m.Join; j.BuildTables > 0 {
		fmt.Fprintf(&sb, " | join: build=%d probe_hits=%d probe_misses=%d shards=%d balance=%.2f",
			j.BuildRows, j.ProbeHits, j.ProbeMisses, j.Shards, j.ShardBalance())
		if j.GeneralRows > 0 {
			fmt.Fprintf(&sb, " general=%d", j.GeneralRows)
		}
	}
	if b := m.Batch; b.ColumnarRows > 0 {
		fmt.Fprintf(&sb, " | batch: columnar=%d fused_passes=%d elision=%.2f vector=%d vector_bail=%d",
			b.ColumnarRows, b.FusedPasses, b.ElisionRate(), b.VectorRows, b.VectorBailRows)
	}
	for _, s := range m.Stages {
		if s.Records == 0 && s.Bytes == 0 {
			continue
		}
		fmt.Fprintf(&sb, " | stage%d: %.0f rows/s", s.Stage, s.RowsPerSec())
		if s.Bytes > 0 {
			fmt.Fprintf(&sb, " %.1f MB/s", s.MBPerSec())
		}
	}
	return sb.String()
}
