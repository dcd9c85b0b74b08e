package main

// The metric and workload tables are the benchmark's source of truth:
// BENCHMARK.json repeats them for the driver, and the smoke test fails
// when the two disagree.

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which are never gated.
	Bound float64
}

// endToEnd are the metrics a user of the engine or the service sees.
// Every one is defined, and never 0, on every workload: a "job" is one
// terminal call on the batch workloads and one Client.Submit on the
// serve workloads.
var endToEnd = []metricDef{
	{"job_p50_ms", "ms", "lower", 0.20},
	{"jobs_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the traced pass. Layers a workload never enters
// report 0 there.
var perLayer = []metricDef{
	// Supporting end-to-end numbers: not gated, because a batch window
	// holds ~10 jobs and no tail percentile has ten samples beyond it.
	{"bench.job_p95_ms", "ms", "lower", 0},
	{"bench.job_p99_ms", "ms", "lower", 0},
	{"bench.job_max_ms", "ms", "lower", 0},
	{"bench.tracing_overhead_share", "share", "lower", 0},

	{"csvio.split_mb_per_s", "MB/s", "higher", 0},
	{"csvio.parse_mb_per_s", "MB/s", "higher", 0},
	{"csvio.parse_reject_share", "share", "lower", 0},
	{"sample.sample_ms", "ms", "lower", 0},
	{"spec.decode_ms", "ms", "lower", 0},
	{"spec.fingerprint_ms", "ms", "lower", 0},
	{"spec.build_ms", "ms", "lower", 0},
	{"plancheck.check_ms", "ms", "lower", 0},
	{"logical.optimize_ms", "ms", "lower", 0},
	{"logical.ops_in", "count", "lower", 0},
	{"logical.ops_out", "count", "lower", 0},
	{"physical.split_ms", "ms", "lower", 0},
	{"physical.stages", "count", "lower", 0},
	{"core.compile_s", "s", "lower", 0},
	{"core.execute_s", "s", "lower", 0},
	{"core.allocs_per_row", "allocs/row", "lower", 0},
	{"core.resolve_share", "share", "lower", 0},
	{"core.exception_share", "share", "lower", 0},
	{"core.join_probe_rows", "rows", "lower", 0},
	{"core.bounced_rows", "rows", "lower", 0},
	{"service.overhead_ms", "ms", "lower", 0},
	{"service.cache_hit_share", "share", "higher", 0},
	{"service.evictions", "count", "lower", 0},
	{"service.rejected_429", "count", "lower", 0},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	// setup generates the inputs and the oracle into dir (parent side,
	// timed as setup_s) and returns the input files to fingerprint.
	setup func(dir string, seed uint64, scale float64) ([]string, error)
	// open prepares the measured process: loads the oracle and, for the
	// serve workloads, starts the server and primes its cache. Its time
	// is the second part of setup_s.
	open func(dir string, seed uint64, procs int) (*runner, error)
}

var workloads = []*workload{
	{
		Name:  "zillow.clean",
		Why:   "String-UDF normal path: codegen/core batch kernels and the CSV sink do the work; no exception rows, no join.",
		setup: setupZillow, open: openZillow,
	},
	{
		Name:  "flights.dirty",
		Why:   "Three joins over wide rows with ~2.6% of rows off the normal path: resolve, join probe, pushdown and boxed Collect.",
		setup: setupFlights, open: openFlights,
	},
	{
		Name:  "q6.scan",
		Why:   "csvio split + numeric parse and the aggregate fold do nearly all the work; UDF and sink work is negligible.",
		setup: setupQ6, open: openQ6,
	},
	{
		Name:  "serve.cold",
		Why:   "Every submission a fresh fingerprint of a compile-heavy 4-row plan: decode, plancheck, sample, compile; bypasses the cache-hit path.",
		setup: setupServeCold, open: openServeCold,
	},
	{
		Name:  "serve.warm",
		Why:   "Seeded 80/20 mix of byte-identical resubmissions (light 4-row plans, heavy file-backed Zillow): cache-hit path, bypasses compile.",
		setup: setupServeWarm, open: openServeWarm,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
