// Package metrics collects the execution statistics Tuplex reports:
// per-path row counts, exception statistics, and phase timings. The
// experiment harness prints these next to every benchmark so the §6
// figures can show exception rates (e.g. the 2.6% general-case rows of
// the flights pipeline).
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Counters tallies rows by the path that produced them. All fields are
// updated atomically; executors share one Counters per run.
type Counters struct {
	// InputRows is the number of input records read.
	InputRows atomic.Int64
	// NormalRows completed entirely on the compiled normal-case path.
	NormalRows atomic.Int64
	// ClassifierRejects failed the row classifier / generated parser.
	ClassifierRejects atomic.Int64
	// NormalPathExceptions raised while running normal-case code.
	NormalPathExceptions atomic.Int64
	// GeneralResolved were recovered by the compiled general-case path.
	GeneralResolved atomic.Int64
	// FallbackResolved were recovered by the interpreter fallback path.
	FallbackResolved atomic.Int64
	// ResolverResolved were recovered by user-provided resolvers.
	ResolverResolved atomic.Int64
	// IgnoredRows were dropped by user-provided ignore() handlers.
	IgnoredRows atomic.Int64
	// FailedRows could not be processed by any path.
	FailedRows atomic.Int64
	// OutputRows reached the sink.
	OutputRows atomic.Int64
}

// ExceptionRate reports the fraction of input rows that left the normal
// path.
func (c *Counters) ExceptionRate() float64 {
	in := c.InputRows.Load()
	if in == 0 {
		return 0
	}
	return float64(c.ClassifierRejects.Load()+c.NormalPathExceptions.Load()) / float64(in)
}

// Ingest tallies the streaming ingest path (§4.4): raw bytes consumed
// from disk and records produced by the chunk boundary scan. Shared by
// the producer and all executors; updated atomically.
type Ingest struct {
	// BytesRead is the raw input bytes consumed (all source files).
	BytesRead atomic.Int64
	// RecordsSplit is the number of records the boundary scan produced.
	RecordsSplit atomic.Int64
}

// Join tallies the sharded hash-join kernels (§4.5). Build-side fields
// accumulate over every build table of the run; probe fields accumulate
// over every probed row (flushed per task, not per row).
type Join struct {
	// BuildTables is the number of join build tables constructed.
	BuildTables atomic.Int64
	// BuildRows is the number of normal-path rows hashed into shards.
	BuildRows atomic.Int64
	// GeneralRows is the number of exception-path build rows kept boxed.
	GeneralRows atomic.Int64
	// ProbeHits / ProbeMisses count probe rows that found / did not find
	// a build match.
	ProbeHits   atomic.Int64
	ProbeMisses atomic.Int64
	// Shards is the per-table shard count (all tables in a run share it).
	Shards atomic.Int64
	// MaxShardRows is the largest shard's row count over all tables.
	MaxShardRows atomic.Int64
}

// ShardBalance reports the largest shard's load relative to a perfectly
// even spread (1.0 = balanced; 0 when no rows were hashed).
func (j *Join) ShardBalance() float64 {
	rows, shards := j.BuildRows.Load(), j.Shards.Load()
	if rows == 0 || shards == 0 {
		return 0
	}
	return float64(j.MaxShardRows.Load()) / (float64(rows) / float64(shards))
}

// HitRate reports the fraction of probed rows that matched.
func (j *Join) HitRate() float64 {
	n := j.ProbeHits.Load() + j.ProbeMisses.Load()
	if n == 0 {
		return 0
	}
	return float64(j.ProbeHits.Load()) / float64(n)
}

// Batch tallies the columnar batch plane: how many rows ran
// column-at-a-time versus bounced to the row bridge at a stage barrier,
// plus kernel-fusion and null-check-elision activity. Flushed per task.
type Batch struct {
	// ColumnarRows counts row×kernel-group passes executed on the batch
	// plane (a row surviving three fused groups counts three times, so
	// the ratio to BouncedRows reflects actual columnar work done).
	ColumnarRows atomic.Int64
	// BouncedRows counts rows that left the batch plane at a stage
	// barrier and finished on the compiled row bridge.
	BouncedRows atomic.Int64
	// FusedPasses counts fused kernel-group executions (one scan over a
	// batch's selection vector, however many adjacent ops it covers).
	FusedPasses atomic.Int64
	// NullElisions / NullChecked count per-batch argument-dispatch
	// decisions: a column bound with the no-null inner loop versus one
	// that kept its per-row null check.
	NullElisions atomic.Int64
	NullChecked  atomic.Int64
	// VectorRows counts rows entering a vector-at-a-time expression
	// kernel or aggregate fold (once per kernel); VectorBailRows those a
	// kernel handed back to the row closure (null operand, zero divisor,
	// guard miss). A UDF that stopped vectorizing shows as VectorRows
	// falling to 0, data the kernels cannot decide as the bail share
	// rising.
	VectorRows     atomic.Int64
	VectorBailRows atomic.Int64
}

// ElisionRate reports the fraction of batch argument bindings that
// skipped per-row null checks.
func (b *Batch) ElisionRate() float64 {
	n := b.NullElisions.Load() + b.NullChecked.Load()
	if n == 0 {
		return 0
	}
	return float64(b.NullElisions.Load()) / float64(n)
}

// StageIngest is one stage's throughput figures.
type StageIngest struct {
	// Stage is the stage index within the run.
	Stage int
	// Bytes read from disk during this stage (0 for non-source stages).
	Bytes int64
	// Records consumed as stage input.
	Records int64
	// Allocs is the number of heap allocations during the stage's
	// execute phase (runtime mallocs delta — the hash kernels keep this
	// near-constant per probe/unique row).
	Allocs int64
	// Duration is the stage's execute-phase wall clock.
	Duration time.Duration
}

// RowsPerSec reports stage-input rows per second.
func (s StageIngest) RowsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Records) / s.Duration.Seconds()
}

// MBPerSec reports raw ingest throughput in MB/s (0 when the stage read
// no bytes).
func (s StageIngest) MBPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) / 1e6 / s.Duration.Seconds()
}

// Timings records the phases of a run.
type Timings struct {
	Sample   time.Duration
	Optimize time.Duration
	Compile  time.Duration
	Execute  time.Duration
	Resolve  time.Duration
	Total    time.Duration
}

// LatencySummary reports quantiles of one latency distribution,
// extracted from a telemetry histogram at run end.
type LatencySummary struct {
	// Count is the number of recorded observations.
	Count int64
	// P50 / P90 / P99 are quantiles (upper bucket bound, ≤6.25%
	// relative error); Max is the largest observation's bucket bound.
	P50 time.Duration
	P90 time.Duration
	P99 time.Duration
	Max time.Duration
}

// Latency bundles the run's latency distributions (zero when telemetry
// was off).
type Latency struct {
	// Chunk is per-task processing wall time (one partition or one
	// streamed chunk per observation).
	Chunk LatencySummary
	// Resolve is per-exception-row resolve wall time.
	Resolve LatencySummary
}

// Metrics bundles counters and timings for one pipeline execution.
type Metrics struct {
	Counters Counters
	Timings  Timings
	Ingest   Ingest
	// Join tallies hash-join build and probe activity.
	Join Join
	// Batch tallies columnar batch-plane activity.
	Batch Batch
	// Stage holds per-stage throughput figures in execution order.
	Stage []StageIngest
	// Stages is the number of generated stages.
	Stages int
	// Latency holds telemetry latency quantiles (zero when telemetry
	// was off for the run).
	Latency Latency
}

// String renders a compact single-run summary.
func (m *Metrics) String() string {
	var sb strings.Builder
	c := &m.Counters
	fmt.Fprintf(&sb, "rows: in=%d out=%d normal=%d", c.InputRows.Load(), c.OutputRows.Load(), c.NormalRows.Load())
	if n := c.ClassifierRejects.Load(); n > 0 {
		fmt.Fprintf(&sb, " classifier_rejects=%d", n)
	}
	if n := c.NormalPathExceptions.Load(); n > 0 {
		fmt.Fprintf(&sb, " normal_exceptions=%d", n)
	}
	if n := c.GeneralResolved.Load(); n > 0 {
		fmt.Fprintf(&sb, " general_resolved=%d", n)
	}
	if n := c.FallbackResolved.Load(); n > 0 {
		fmt.Fprintf(&sb, " fallback_resolved=%d", n)
	}
	if n := c.ResolverResolved.Load(); n > 0 {
		fmt.Fprintf(&sb, " resolver_resolved=%d", n)
	}
	if n := c.IgnoredRows.Load(); n > 0 {
		fmt.Fprintf(&sb, " ignored=%d", n)
	}
	if n := c.FailedRows.Load(); n > 0 {
		fmt.Fprintf(&sb, " failed=%d", n)
	}
	fmt.Fprintf(&sb, " | sample=%s compile=%s exec=%s resolve=%s total=%s",
		round(m.Timings.Sample), round(m.Timings.Compile), round(m.Timings.Execute),
		round(m.Timings.Resolve), round(m.Timings.Total))
	if b := m.Ingest.BytesRead.Load(); b > 0 {
		fmt.Fprintf(&sb, " | ingest: %.1f MB, %d records", float64(b)/1e6, m.Ingest.RecordsSplit.Load())
	}
	if j := &m.Join; j.BuildTables.Load() > 0 {
		fmt.Fprintf(&sb, " | join: build=%d probe_hits=%d probe_misses=%d shards=%d balance=%.2f",
			j.BuildRows.Load(), j.ProbeHits.Load(), j.ProbeMisses.Load(), j.Shards.Load(), j.ShardBalance())
		if n := j.GeneralRows.Load(); n > 0 {
			fmt.Fprintf(&sb, " general=%d", n)
		}
	}
	if b := &m.Batch; b.ColumnarRows.Load() > 0 || b.BouncedRows.Load() > 0 {
		fmt.Fprintf(&sb, " | batch: columnar=%d bounced=%d fused_passes=%d elision=%.2f vector=%d vector_bail=%d",
			b.ColumnarRows.Load(), b.BouncedRows.Load(), b.FusedPasses.Load(), b.ElisionRate(),
			b.VectorRows.Load(), b.VectorBailRows.Load())
	}
	for _, s := range m.Stage {
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

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond * 10) }
