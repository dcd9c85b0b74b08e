# Tier-1 gate: build + tests. `make check` adds vet and the race
# detector (the streamed ingest producer/consumer path must stay
# race-clean); run it before sending a PR.

GO ?= go

.PHONY: all build test vet fmt-check tuplex-vet plancheck race check bench bench-check bench-ingest bench-smoke fuzz-smoke telemetry-smoke serve-smoke trace-demo loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Repo-specific analyzers (internal/lint): exported-API internal-type
# leaks, trace-span Begin/End mispairings, atomic copies, hot-path
# allocs, sentinel-error == comparisons, dropped-ctx calls.
tuplex-vet:
	$(GO) run ./cmd/tuplex-vet

# Whole-plan static verifier: golden diagnostics for the adversarial
# corpus (testdata/plancheck/) and the five paper pipelines, plus
# `tuplex-run -check` over each paper pipeline as a CLI end-to-end.
plancheck:
	$(GO) test ./internal/plancheck/
	for p in zillow flights weblogs 311 q6; do \
		$(GO) run ./cmd/tuplex-run -pipeline $$p -rows 200 -check || exit 1; \
	done

race:
	$(GO) test -race ./...

# The repository benchmark (BENCHMARK.json, bench/README.md).
bench:
	bash bench/run.sh

# bench/ is a nested Go module, invisible to `go test ./...` above; vet
# and test it here so a core signature change that breaks the benchmark
# fails tier-1 instead of the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build vet fmt-check tuplex-vet plancheck test race bench-check

# Non-test Go lines per package directory and in total, outside the
# nested bench/ module — the size figure a simplification reports.
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if (!(d in n)) order[k++] = d; n[d] += $$1; t += $$1 } \
		END { for (i = 0; i < k; i++) printf "%7d %s\n", n[order[i]], order[i]; printf "%7d total\n", t }'

bench-ingest:
	$(GO) test -bench BenchmarkIngest -run '^$$' .

# One iteration of every benchmark — catches bitrot in bench code
# without the timing cost of a real run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# About ten seconds of each fuzz target (FUZZTIME to change it; CI runs
# it at FUZZTIME=5s on every change). FuzzParseChunk holds the chunk
# parser's one walk per record to SplitRecords + ParseLineVecs, with
# random fields lazy (checked in the walk, converted after it) and
# compared once every lazy cell is converted; the other csvio targets
# hold the record scans, the float parser, the general reading, cell
# splitting and the sniffer to their references. FuzzParseUDF holds the
# UDF lexer and parser to increasing token positions, in-source error
# positions and a deterministic parse; a new input minimizes in 200
# runs, as a parse is cheap and the default minute of minimizing would
# stall a short smoke. FuzzRowClosure holds the row closures of
# generated numeric and boolean UDFs (both Specialize modes), and the
# general path's compiled closures, to the tree-walker, from a fuzzed
# generator seed. The generator draws its operators from pyvalue.Op's
# range: + - * / // % ** & | ^ << >> (shift counts 0, 63, 64, 65 and
# negative; floats under the bitwise ones), unary - + ~ not, and every
# comparison (in, not in, is, is not too), so an operator added to
# pyvalue.Op is fuzzed without a change here; divergences it found are
# pinned in TestRowDivergencesPinned, not in the corpus, as its inputs
# are generator seeds. Its minimization is cut to 200 runs like
# FuzzParseUDF's. FuzzSubmit posts each body to /v1/jobs
# twice and holds the second reply (spec memo, plan cache) to the first;
# minimizing a new input re-runs whole jobs, so its minimization is cut
# to 50 runs, or a short smoke spends its time minimizing instead of
# fuzzing. Not part of `check`: it runs for about a minute (half that in
# CI).
FUZZTIME ?= 10s
CSVIO_FUZZ = FuzzParseChunk FuzzSplitRecords FuzzParseF64Bytes FuzzGeneralParse FuzzSplitCells FuzzSniffValue

fuzz-smoke:
	for f in $(CSVIO_FUZZ); do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) ./internal/csvio || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzParseUDF$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/pyast
	$(GO) test -run '^$$' -fuzz '^FuzzRowClosure$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/codegen
	$(GO) test -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 50x ./internal/service

# End-to-end check of the introspection server: tuplex-bench with
# -listen, scrape /metrics and /debug/tuplex/runz, fail on non-200 or
# empty/malformed responses.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end check of the tuplex-serve daemon: zillow job answers 200,
# byte-identical resubmission is a cache hit, cold p50 >= 10x warm p50
# on a compile-heavy small job, >= 1k sustained jobs/sec, overload
# sheds with 429s, SIGTERM drains cleanly.
serve-smoke:
	sh scripts/serve_smoke.sh

# Run the Zillow example with full tracing: prints the span tree, the
# per-operator row-routing ledger and sampled exception rows.
trace-demo:
	$(GO) run ./examples/zillow -rows 20000 -trace
