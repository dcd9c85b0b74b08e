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

# About ten seconds of every fuzz target in the module (FUZZTIME to
# change it; CI runs it at FUZZTIME=5s on every change). The targets are
# listed per package by `go test -list '^Fuzz'`, so a new one is fuzzed
# without a change here. FuzzParseChunk holds the chunk parser's one walk
# per record to SplitRecords + ParseLineVecs, with random fields lazy
# (checked in the walk, converted after it) and compared once every lazy
# cell is converted; the other csvio targets hold the record scans, the
# float parser, the general reading, cell splitting and the sniffer to
# their references. FuzzParseUDF holds the UDF lexer and parser to
# increasing token positions, in-source error positions and a
# deterministic parse. FuzzRowClosure holds the row closures of generated
# numeric and boolean UDFs (both Specialize modes), and interp.Compiled,
# to the tree-walker, from a fuzzed generator seed. The generator draws
# its operators from pyvalue.Op's range: + - * / // % ** & | ^ << >>
# (shift counts 0, 63, 64, 65 and negative; floats under the bitwise
# ones), unary - + ~ not, and every comparison (in, not in, is, is not
# too), so an operator added to pyvalue.Op is fuzzed without a change
# here; divergences it found are pinned in TestRowDivergencesPinned, not
# in the corpus, as its inputs are generator seeds. FuzzVecStrFind and
# FuzzVecIntParse hold the string vector kernels' find and int parse to
# the standard library and a reference parser, FuzzIntFormat the
# compiled int format strings to the boxed formatter, FuzzAppendResult
# the typed result encoder to json.Marshal, and FuzzDecodeJob the
# client's job decoder to json.Unmarshal. FuzzSubmit posts each body to
# /v1/jobs twice and holds the second reply (spec memo, plan cache) to
# the first. FUZZ_MINIMIZE caps the minimization of a new input for the
# targets whose default minute of minimizing would stall a short smoke:
# a UDF parse or closure run is cheap, so 200 runs; a submission re-runs
# whole jobs, so 50. Not part of `check`: it runs for a few minutes.
FUZZTIME ?= 10s
FUZZ_MINIMIZE = FuzzParseUDF=200x FuzzRowClosure=200x FuzzSubmit=50x

fuzz-smoke:
	list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | \
		awk '/^Fuzz/ { f[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i] } { n = 0 }' | \
		while read pkg f; do \
			min=$$(for m in $(FUZZ_MINIMIZE); do case $$m in "$$f="*) echo "-fuzzminimizetime $${m#*=}";; esac; done); \
			echo "fuzz $$f ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$min $$pkg || exit 1; \
		done

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
