#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source, then run
# it with the driver's arguments. Run from the root of a checkout:
#
#	bash bench/run.sh --workload q6.scan --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write — build cache,
# binary, generated inputs, results — stays under .bench_build/ in the
# checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$build/bin/tuplex-bench" .)
exec "$build/bin/tuplex-bench" -dir "$build" "$@"
