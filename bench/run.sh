#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root. See bench/README.md.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the JSON result
#   bash bench/run.sh [SEED [FILE]]
#       a set: every workload untraced, then traced, each in its own
#       process; the results go to FILE (default bench-set-SEED.jsonl)
#   bash bench/run.sh compare A.jsonl B.jsonl
#       B's medians against A's under the BENCHMARK.json bounds
#   bash bench/run.sh golden > bench/golden.json
#       re-pin the seed-1 digests after a deliberate model change
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
# Keep every build artifact inside the checkout, and never fetch anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$out/bench" .)

case "${1:-}" in
-* | set | compare | golden) exec "$out/bench" "$@" ;;
*) exec "$out/bench" set "$@" ;;
esac
