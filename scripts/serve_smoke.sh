#!/bin/sh
# serve_smoke.sh — CI smoke test for the tuplex-serve daemon.
#
# Exercises the service end to end with tuplex-loadgen:
#   1. zillow: a real pipeline over a generated 20k-row CSV answers 200
#      and its byte-identical resubmissions are cache hits.
#   2. small: an expression-heavy tiny-data job shows the cache skipping
#      sampling + compilation — cold p50 must be >= 10x warm p50,
#      checked here from loadgen's -json report (not scraped text).
#   3. tiny: sustained resubmission throughput >= 1000 jobs/sec, every
#      one a cache hit.
#   4. /metrics exposes the service counters with the hits recorded.
#   5. trace: a traced warm submission's /v1/jobs/{id}/trace?format=chrome
#      is a valid Chrome trace-event document with spans; it is kept as a
#      workflow artifact ($SMOKE_ARTIFACTS).
#   6. validate: an invalid spec gets 422 + TPX diagnostics from
#      /v1/jobs without consuming an admission slot or cache entry,
#      and /v1/validate returns the list without executing anything.
#   7. overload: a daemon capped at one slot and no queue sheds a
#      32-way storm with 429s, the flight recorder at
#      /debug/tuplex/eventz shows the shed events, and the daemon still
#      answers afterwards.
#   8. expiry: an async job over a 20k-row zillow file finishes with its
#      result; enough later jobs push the finished-job ring past its
#      16 MiB result budget, after which GET /v1/jobs/{id} answers the
#      job's status with "result_expired":true and no result, and
#      /metrics' retained-bytes gauge is within the budget plus one
#      result.
#   9. SIGTERM drains cleanly (exit 0, "drained cleanly" in the log).
set -eu

PORT="${PORT:-9825}"
PORT2="${PORT2:-9826}"
ADDR="127.0.0.1:$PORT"
ADDR2="127.0.0.1:$PORT2"
TMP="$(mktemp -d)"
ART="${SMOKE_ARTIFACTS:-$TMP}"
mkdir -p "$ART"
SERVE_PID=""
SERVE2_PID=""
trap 'kill "$SERVE_PID" "$SERVE2_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/tuplex-serve" ./cmd/tuplex-serve
go build -o "$TMP/tuplex-loadgen" ./cmd/tuplex-loadgen
go build -o "$TMP/tuplex-datagen" ./cmd/tuplex-datagen

"$TMP/tuplex-serve" -addr "$ADDR" >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the daemon to accept connections.
ready() {
    addr="$1"
    for i in $(seq 1 50); do
        if curl -s -o /dev/null "http://$addr/v1/jobs"; then
            return 0
        fi
        sleep 0.2
    done
    echo "serve-smoke: daemon on $addr never came up" >&2
    return 1
}
ready "$ADDR"

# jnum FILE FIELD extracts a numeric field from a JSON report (compact
# loadgen output or the daemon's indented documents).
jnum() { sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" "$1" | head -n 1; }
# jstr FILE FIELD extracts a string field.
jstr() { sed -n "s/.*\"$2\": *\"\([^\"]*\)\".*/\1/p" "$1" | head -n 1; }

echo "serve-smoke: [1/9] zillow job + cache hit on resubmission"
"$TMP/tuplex-loadgen" -addr "http://$ADDR" -pipeline zillow -zillow-rows 20000 \
    -n 2 -c 1 -assert-hits -json >"$TMP/zillow.json"

echo "serve-smoke: [2/9] cold vs warm: cache must skip sample+compile (>=10x)"
"$TMP/tuplex-loadgen" -addr "http://$ADDR" -pipeline small \
    -n 20 -c 1 -assert-hits -json >"$TMP/small.json"
cold_p50=$(jnum "$TMP/small.json" cold_p50_ns)
warm_p50=$(jnum "$TMP/small.json" warm_p50_ns)
warm_p99=$(jnum "$TMP/small.json" warm_p99_ns)
[ -n "$cold_p50" ] && [ -n "$warm_p50" ] && [ "$warm_p50" -gt 0 ] || {
    echo "serve-smoke: loadgen -json report missing percentiles:" >&2
    cat "$TMP/small.json" >&2
    exit 1
}
[ "$cold_p50" -ge $((warm_p50 * 10)) ] || {
    echo "serve-smoke: cold p50 ${cold_p50}ns < 10x warm p50 ${warm_p50}ns" >&2
    exit 1
}
echo "serve-smoke:   cold p50 ${cold_p50}ns, warm p50 ${warm_p50}ns, warm p99 ${warm_p99}ns"

echo "serve-smoke: [3/9] sustained throughput >= 1000 jobs/sec"
"$TMP/tuplex-loadgen" -addr "http://$ADDR" -pipeline tiny \
    -n 3000 -c 8 -assert-hits -assert-min-rate 1000 -json >"$TMP/tiny.json"

echo "serve-smoke: [4/9] service metrics exposed"
curl -s "http://$ADDR/metrics" >"$TMP/metrics.txt"
grep -q '^tuplex_service_cache_hits_total ' "$TMP/metrics.txt" || {
    echo "serve-smoke: tuplex_service_cache_hits_total missing from /metrics" >&2
    exit 1
}
hits=$(awk '/^tuplex_service_cache_hits_total /{print int($2)}' "$TMP/metrics.txt")
[ "$hits" -gt 0 ] || {
    echo "serve-smoke: /metrics recorded no cache hits (got $hits)" >&2
    exit 1
}

echo "serve-smoke: [5/9] job trace endpoint: valid Chrome trace for a warm job"
GOOD_SPEC='{"v":1,"source":{"kind":"parallelize","columns":["a","b"],"rows":[[1,2],[3,4]]},"ops":[{"kind":"withColumn","col":"c","udf":{"code":"lambda x: x[\"a\"] + 1"}}]}'
curl -s -o /dev/null -X POST "http://$ADDR/v1/jobs" -d "$GOOD_SPEC"
curl -s -H 'X-Tuplex-Trace: smoke-trace-1' -X POST "http://$ADDR/v1/jobs" \
    -d "$GOOD_SPEC" >"$TMP/traced-job.json"
job_id=$(jstr "$TMP/traced-job.json" id)
[ -n "$job_id" ] || {
    echo "serve-smoke: traced submission returned no job id:" >&2
    cat "$TMP/traced-job.json" >&2
    exit 1
}
grep -q '"trace_id": *"smoke-trace-1"' "$TMP/traced-job.json" || {
    echo "serve-smoke: X-Tuplex-Trace id did not round-trip:" >&2
    cat "$TMP/traced-job.json" >&2
    exit 1
}
code=$(curl -s -o "$TMP/job-trace.json" -w '%{http_code}' \
    "http://$ADDR/v1/jobs/$job_id/trace?format=chrome")
[ "$code" = "200" ] || {
    echo "serve-smoke: trace endpoint answered $code, want 200" >&2
    exit 1
}
# Structural checks: a trace-event document with complete events for the
# service spans and the engine run beneath them.
grep -q '"traceEvents"' "$TMP/job-trace.json" &&
    grep -q '"ph": *"X"' "$TMP/job-trace.json" &&
    grep -q '"name": *"job"' "$TMP/job-trace.json" &&
    grep -q '"name": *"run"' "$TMP/job-trace.json" || {
    echo "serve-smoke: chrome trace is not a span-bearing trace-event doc:" >&2
    head -c 400 "$TMP/job-trace.json" >&2
    exit 1
}
[ "$ART" = "$TMP" ] || cp "$TMP/job-trace.json" "$ART/job-trace.json"
echo "serve-smoke:   chrome trace for job $job_id kept at $ART/job-trace.json"

echo "serve-smoke: [6/9] invalid spec: 422 with diagnostics, no slot or cache entry consumed"
BAD_SPEC='{"v":1,"source":{"kind":"parallelize","columns":["a","b"],"rows":[[1,2]]},"ops":[{"kind":"withColumn","col":"c","udf":{"code":"lambda x: x[\"nope\"] + 1"}}]}'
metric() { awk -v m="^$2 " '$0 ~ m {print int($2)}' "$1"; }
curl -s "http://$ADDR/metrics" >"$TMP/before.txt"
code=$(curl -s -o "$TMP/invalid.json" -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" -d "$BAD_SPEC")
[ "$code" = "422" ] || {
    echo "serve-smoke: invalid spec got $code, want 422:" >&2
    cat "$TMP/invalid.json" >&2
    exit 1
}
grep -q '"TPX001"' "$TMP/invalid.json" || {
    echo "serve-smoke: 422 body carries no TPX001 diagnostic:" >&2
    cat "$TMP/invalid.json" >&2
    exit 1
}
curl -s "http://$ADDR/metrics" >"$TMP/after.txt"
for m in tuplex_service_jobs_submitted_total tuplex_service_cache_hits_total \
         tuplex_service_cache_misses_total tuplex_service_queue_depth; do
    b=$(metric "$TMP/before.txt" "$m"); a=$(metric "$TMP/after.txt" "$m")
    [ "$b" = "$a" ] || {
        echo "serve-smoke: invalid spec moved $m ($b -> $a)" >&2
        exit 1
    }
done
inv=$(metric "$TMP/after.txt" tuplex_service_jobs_invalid_total)
[ "$inv" -ge 1 ] || {
    echo "serve-smoke: tuplex_service_jobs_invalid_total did not count the 422 (got $inv)" >&2
    exit 1
}
code=$(curl -s -o "$TMP/validate.json" -w '%{http_code}' -X POST "http://$ADDR/v1/validate" -d "$BAD_SPEC")
[ "$code" = "200" ] || {
    echo "serve-smoke: /v1/validate answered $code, want 200" >&2
    exit 1
}
grep -q '"TPX001"' "$TMP/validate.json" || {
    echo "serve-smoke: /v1/validate body carries no TPX001 diagnostic:" >&2
    cat "$TMP/validate.json" >&2
    exit 1
}

echo "serve-smoke: [7/9] overload sheds with 429 and the flight recorder shows it"
"$TMP/tuplex-serve" -addr "$ADDR2" -max-concurrent 1 -queue-depth -1 \
    >"$TMP/serve2.log" 2>&1 &
SERVE2_PID=$!
ready "$ADDR2"
"$TMP/tuplex-loadgen" -addr "http://$ADDR2" -pipeline tiny \
    -n 800 -c 32 -expect-429 -json >"$TMP/overload.json"
rejected=$(jnum "$TMP/overload.json" rejected_429)
[ -n "$rejected" ] && [ "$rejected" -gt 0 ] || {
    echo "serve-smoke: overload report shows no 429s:" >&2
    cat "$TMP/overload.json" >&2
    exit 1
}
# The storm must be visible in the flight recorder as shed events.
curl -s "http://$ADDR2/debug/tuplex/eventz" >"$TMP/eventz.json"
grep -q '"kind": *"shed"' "$TMP/eventz.json" || {
    echo "serve-smoke: /debug/tuplex/eventz recorded no shed events after $rejected 429s:" >&2
    head -c 400 "$TMP/eventz.json" >&2
    exit 1
}
[ "$ART" = "$TMP" ] || cp "$TMP/eventz.json" "$ART/eventz.json"
# The daemon must still answer normally after the storm.
"$TMP/tuplex-loadgen" -addr "http://$ADDR2" -pipeline tiny \
    -n 5 -c 1 -assert-hits -json >"$TMP/after.json"

echo "serve-smoke: [8/9] result expiry: an async job's result is dropped past the byte budget"
"$TMP/tuplex-datagen" -dataset zillow -rows 20000 -seed 7 -out "$TMP/expiry.csv" >/dev/null
EXPIRY_SPEC='{"v":1,"source":{"kind":"csv","path":"'"$TMP/expiry.csv"'"},"ops":[{"kind":"mapColumn","col":"city","udf":{"code":"lambda c: c.upper()"}}],"sink":{"kind":"csv"}}'
code=$(curl -s -o "$TMP/expiry-submit.json" -w '%{http_code}' -X POST "http://$ADDR/v1/jobs?wait=false" -d "$EXPIRY_SPEC")
job_id=$(jstr "$TMP/expiry-submit.json" id)
[ "$code" = "202" ] && [ -n "$job_id" ] || {
    echo "serve-smoke: async submission answered $code, want 202 with an id:" >&2
    cat "$TMP/expiry-submit.json" >&2
    exit 1
}
for i in $(seq 1 100); do
    curl -s "http://$ADDR/v1/jobs/$job_id" >"$TMP/expiry-job.json"
    [ "$(jstr "$TMP/expiry-job.json" state)" = "running" ] ||
        [ "$(jstr "$TMP/expiry-job.json" state)" = "queued" ] || break
    sleep 0.1
done
grep -q '"state":"done"' "$TMP/expiry-job.json" && grep -q '"result":{' "$TMP/expiry-job.json" || {
    echo "serve-smoke: async job $job_id did not finish with its result:" >&2
    head -c 400 "$TMP/expiry-job.json" >&2
    exit 1
}
# The whole reply bounds the one result it carries.
result_bytes=$(wc -c <"$TMP/expiry-job.json")
budget=$((16 << 20))
expired=0
for i in $(seq 1 $((2 * budget / result_bytes + 2))); do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" -d "$EXPIRY_SPEC")
    [ "$code" = "200" ] || {
        echo "serve-smoke: sync resubmission $i answered $code" >&2
        exit 1
    }
    curl -s "http://$ADDR/metrics" >"$TMP/expiry-metrics.txt"
    expired=$(metric "$TMP/expiry-metrics.txt" tuplex_service_results_expired_total)
    [ "$expired" -eq 0 ] || break
done
curl -s "http://$ADDR/v1/jobs/$job_id" >"$TMP/expiry-job.json"
grep -q '"state":"done"' "$TMP/expiry-job.json" &&
    grep -q '"result_expired":true' "$TMP/expiry-job.json" &&
    ! grep -q '"result":' "$TMP/expiry-job.json" || {
    echo "serve-smoke: job $job_id is not flagged expired after $expired expiries:" >&2
    head -c 400 "$TMP/expiry-job.json" >&2
    exit 1
}
retained=$(metric "$TMP/expiry-metrics.txt" tuplex_service_retained_result_bytes)
[ -n "$retained" ] && [ "$retained" -le $((budget + result_bytes)) ] || {
    echo "serve-smoke: retained result bytes ${retained:-missing} exceed the budget $budget plus one result ($result_bytes)" >&2
    exit 1
}
echo "serve-smoke:   job $job_id expired; $expired results dropped, $retained result bytes retained"

echo "serve-smoke: [9/9] SIGTERM drains cleanly"
for pid in "$SERVE_PID" "$SERVE2_PID"; do
    kill -TERM "$pid"
    wait "$pid" || {
        echo "serve-smoke: daemon (pid $pid) exited non-zero on SIGTERM" >&2
        cat "$TMP/serve.log" "$TMP/serve2.log" >&2
        exit 1
    }
done
SERVE_PID=""
SERVE2_PID=""
grep -q 'drained cleanly' "$TMP/serve.log" || {
    echo "serve-smoke: daemon did not report a clean drain:" >&2
    cat "$TMP/serve.log" >&2
    exit 1
}

echo "serve-smoke: ok (cache hit, >=10x cold/warm, >=1k jobs/sec, chrome trace, 422 fail-fast, 429 shedding + eventz, result expiry, clean drain)"
