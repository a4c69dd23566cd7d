#!/bin/sh
# bench.sh — run the scheduler and full-simulator benchmarks and write the
# results (ns/op, B/op, allocs/op per benchmark) as JSON.
#
# Usage: scripts/bench.sh [output.json]     (default: BENCH_1.json)
set -eu
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_1.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

echo "running engine micro-benchmarks..." >&2
go test -run '^$' -benchmem \
    -bench '^(BenchmarkTypedEventRing|BenchmarkTypedEventHeap|BenchmarkMixedHorizon)$' \
    ./internal/sim >"$TMP"

echo "running protocol-table dispatch benchmark..." >&2
go test -run '^$' -benchmem \
    -bench '^BenchmarkProtocolDispatch$' \
    ./internal/coherence/proto >>"$TMP"

echo "running component and full-sim benchmarks..." >&2
go test -run '^$' -benchmem \
    -bench '^(BenchmarkNoCSend|BenchmarkHitChain|BenchmarkSimulatorThroughput|BenchmarkTelemetryEnabledOverhead|BenchmarkObsDisabledOverhead|BenchmarkObsEnabledOverhead)$' \
    . >>"$TMP"

echo "running machine-reuse benchmarks..." >&2
go test -run '^$' -benchmem \
    -bench '^(BenchmarkMachineConstruction|BenchmarkMachineReset|BenchmarkSweepThroughput)$' \
    . >>"$TMP"

echo "running core-count scaling benchmark..." >&2
go test -run '^$' -benchmem \
    -bench '^BenchmarkScalingCores$' \
    . >>"$TMP"

GOVER="$(go version | awk '{print $3}')"
awk -v gover="$GOVER" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")      ns = $(i-1)
        else if ($i == "B/op")      bytes = $(i-1)
        else if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns != "") {
        n++
        entries[n] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                             name, ns, bytes, allocs)
    }
}
END {
    printf "{\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", gover
    for (i = 1; i <= n; i++)
        printf "%s%s\n", entries[i], (i < n ? "," : "")
    printf "  ]\n}\n"
}' "$TMP" >"$OUT"

echo "wrote $OUT" >&2
cat "$OUT"
