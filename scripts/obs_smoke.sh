#!/bin/sh
# obs_smoke.sh — end-to-end run-ledger + self-profiler check.
#
# Runs a small sweep (Fig. 11 quick scope) twice with the same seed, each
# writing a redacted ledger, then asserts:
#
#   1. both sweeps produce byte-identical redacted ledgers (with the
#      host-tagged fields zeroed, a ledger is a pure function of the spec
#      set and seed);
#   2. the ledger JSONL passes the schema validator (telemetryck -ledger:
#      schema version, sorted keys per record, records sorted by key);
#   3. a single -selfprofile -ledger simulation prints the engine
#      self-profile and its one-record ledger validates too.
#
# Fully offline; `make obs-smoke` and CI's test job run this.
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

SWEEP="go run ./cmd/lockillerbench -fig 11 -quick -seed 1 -obs-redact"

echo "obs-smoke: sweep 1..." >&2
$SWEEP -ledger "$TMP/l1.jsonl" >/dev/null
echo "obs-smoke: sweep 2 (same seed)..." >&2
$SWEEP -ledger "$TMP/l2.jsonl" >/dev/null

cmp "$TMP/l1.jsonl" "$TMP/l2.jsonl" || {
    echo "obs-smoke: FAIL: redacted ledgers differ across same-seed sweeps" >&2
    exit 1
}

echo "obs-smoke: validating ledger schema..." >&2
go run ./cmd/telemetryck -ledger "$TMP/l1.jsonl"

echo "obs-smoke: single run with self-profiler..." >&2
go run ./cmd/lockillersim -system LockillerTM -workload kmeans -threads 4 -seed 1 \
    -selfprofile -ledger "$TMP/single.jsonl" >"$TMP/out.txt"
grep -q 'engine self-profile' "$TMP/out.txt" || {
    echo "obs-smoke: FAIL: -selfprofile printed no self-profile report" >&2
    exit 1
}
go run ./cmd/telemetryck -ledger "$TMP/single.jsonl"

echo "obs-smoke: OK ($(wc -l <"$TMP/l1.jsonl") sweep records)" >&2
