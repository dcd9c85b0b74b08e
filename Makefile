# Tier-1 gate: build + tests. `make check` adds vet and the race
# detector (the streamed ingest producer/consumer path must stay
# race-clean); run it before sending a PR.

GO ?= go

.PHONY: all build test vet fmt-check tuplex-vet plancheck race check bench bench-check bench-ingest bench-smoke telemetry-smoke serve-smoke trace-demo loc

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
