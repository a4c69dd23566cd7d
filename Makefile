# Standard developer entry points. The repo is plain `go build`-able; this
# file just names the common invocations.

GO ?= go

# Pinned versions for the external linters CI installs. Bump deliberately —
# new staticcheck releases can add checks that fail an unchanged tree.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build vet lint staticcheck vulncheck test test-race test-short bench telemetry-smoke obs-smoke figures eval clean

all: vet lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (determinism, pool-ownership, and hot-path
# invariants). See DESIGN.md "Determinism & pooling rules" for what each pass
# enforces and how to waive a finding.
lint:
	$(GO) run ./cmd/lockillerlint ./...

# Machine-readable diagnostics for CI and tooling (same analyzers as lint).
lint-json:
	$(GO) run ./cmd/lockillerlint -json ./...

# External linters. These download a tool, so they are CI-only targets on
# machines with network access; `make lint` stays fully offline.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test ./...

# Short test set under the race detector (CI runs this; the full matrix
# under -race is slow).
test-race:
	$(GO) test -race -short ./...

test-short:
	$(GO) test -short ./...

# Run the scheduler + full-simulator benchmarks and write BENCH_8.json
# (ns/op, B/op, allocs/op per benchmark). BENCH_1.json is the pre-refactor
# baseline, BENCH_2.json the table-driven protocol engine, BENCH_3.json the
# telemetry layer, BENCH_4.json the event-fusion fast path + allocation
# cleanup, BENCH_5.json a since-removed engine experiment, BENCH_6.json
# the scalable-machine refactor (adds ScalingCores/{32,64,128,256}, whose
# metric of record is ns per simulated core-cycle), BENCH_7.json the
# host-side observability layer (adds ObsDisabledOverhead/
# ObsEnabledOverhead), BENCH_8.json machine reuse (adds
# MachineConstruction/MachineReset — reset must stay >= 5x cheaper than
# construction — and SweepThroughput, the end-to-end sweep wall through the
# machine pool). Compare SimulatorThroughput across files, and within a file
# compare ObsDisabledOverhead (no tracer, telemetry or probe attached)
# against SimulatorThroughput (<= 1% and zero extra allocs for the disabled
# hooks). The regression gate is `bash bench/run.sh compare`
# (bench/README.md): medians of repeated end-to-end runs against fixed
# bounds.
bench:
	sh scripts/bench.sh BENCH_8.json

# Short end-to-end observability check: run one small simulation with all
# telemetry enabled twice with the same seed, assert byte-identical output,
# and validate the Chrome-trace and metrics JSON schemas (sorted keys,
# monotonic sample clock). Offline; runs in CI.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Host-side observability check: a small same-seed sweep run twice must
# produce byte-identical redacted run ledgers, the ledger JSONL must pass
# the schema validator, and lockillersim -selfprofile must print the engine
# self-profile. Offline; runs in CI's test job.
obs-smoke:
	sh scripts/obs_smoke.sh

# Regenerate the paper's figures (quick scope).
figures:
	$(GO) run ./cmd/lockillerbench -all -quick

# Full evaluation sweep (the EXPERIMENTS.md numbers). Writes to out/,
# which is gitignored — eval output is derived data, not source.
eval:
	sh scripts/eval.sh

clean:
	$(GO) clean ./...
	rm -f cpu.out mem.out
	rm -rf out
