# Reproduction of "Automatic Discovery of Language Models for Text
# Databases" (Callan, Connell & Du, SIGMOD 1999).
#
# The targets mirror the checks CI and the PR process run: `make test`
# is the tier-1 gate, `make race` exercises the parallel experiment
# engine under the race detector, `make bench` records throughput.

GO ?= go

# Budget for each fuzz target in fuzz-smoke; CI keeps it short.
FUZZTIME ?= 10s

# Tier-1 benchmark set for the regression gate (see bench-check).
BENCH_PATTERN := SamplerThroughput|SuiteBaselines|Rank100DBs|TokenizeASCII|SearchScored|SnapshotLoad|IncrementalRecompile|RepolintFullRepo|ScatterGather|BatchRank|HTTPRank|WireRoundTrip
# Benchmarks that must be present in every recording; benchdiff record
# fails otherwise, so a renamed/filtered-out rank benchmark cannot
# silently drop out of the regression gate.
BENCH_REQUIRE := Rank100DBs,SnapshotLoad,IncrementalRecompile,RepolintFullRepo,ScatterGather,BatchRank
# Repeated runs per benchmark; benchdiff keeps the median, which is what
# makes a 25% threshold usable on noisy shared CI machines.
BENCH_COUNT ?= 5
BENCH_OUT ?= BENCH_current.json

# Ratcheted statement-coverage floor over ./internal/... — raise it as
# coverage grows; never lower it to admit a regression. Current: 86.5%.
COVER_FLOOR ?= 86.2

# Ratcheted ceiling on honoured //lint:ignore suppressions, the mirror
# image of COVER_FLOOR: lower it as suppressions are retired; never raise
# it to admit a new one. Current: 46.
LINT_IGNORE_CEIL ?= 46

# Load-smoke workload size. CI keeps it short; quadruple locally when
# refreshing the committed baseline on a quiet machine.
LOAD_REQUESTS ?= 200
# The four load reports the gate diffs: sequential /rank against a
# single-process service, POST /rank/batch against a 2-shard front, the
# same front streamed (?stream=1, TTFR percentiles), and a duplicate-heavy
# workload that exercises both coalescing tiers. Distinct -label values
# keep their metric keys apart in one summary.
LOAD_REPORTS := LOADGEN_single.json LOADGEN_batch.json LOADGEN_stream.json LOADGEN_dup.json
LOAD_REQUIRE := loadgen/single/qps,loadgen/single/p99_us,loadgen/batch/qps,loadgen/batch/p99_us,loadgen/stream/qps,loadgen/stream/p99_us,loadgen/stream/ttfr_us,loadgen/dup/qps,loadgen/dup/p99_us
# The load gate's regression threshold. Wider than the benchmark gate's
# 25%: ns/op numbers are 5-run medians, while each load metric is one
# draw of a client-side quantile on a shared runner — its run-to-run
# spread is real serving jitter, not measurement error benchdiff can
# median away. The committed baseline values are 5-run medians (see
# bench-baseline), which centers the comparison but cannot narrow the
# current run's draw.
LOAD_THRESHOLD ?= 0.5

.PHONY: all build test race bench bench-all bench-check bench-baseline \
	cover vet lint lint-sarif lint-ratchet chaos fuzz-smoke snapshot-fuzz \
	load-smoke stream-smoke load-gate ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite caches, worker pool, and copy-on-write snapshots are shared
# across goroutines; the race detector over internal/... is the gate
# that keeps them honest.
race:
	$(GO) test -race ./internal/...

# Throughput benchmarks: sampler docs/s and queries/s, the parallel
# sampling fan-out, and the sequential-vs-parallel baseline sweep.
bench:
	$(GO) test . -run xxx -bench 'SamplerThroughput|SuiteBaselines' -benchmem

# Every benchmark (regenerates each table/figure once per iteration).
bench-all:
	$(GO) test . -run xxx -bench . -benchtime=1x

# Benchmark regression gate: run the tier-1 set BENCH_COUNT times, record
# the medians to BENCH_OUT (CI uploads it as an artifact), and fail if any
# benchmark's ns/op grew more than 25% over the committed baseline.
bench-check:
	$(GO) test . -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) | tee bench.txt
	$(GO) run ./cmd/benchdiff record -o $(BENCH_OUT) -require $(BENCH_REQUIRE) bench.txt
	$(GO) run ./cmd/benchdiff compare -threshold 0.25 BENCH_baseline.json $(BENCH_OUT)

# Refresh the committed baseline. Run on a quiet machine and commit the
# resulting BENCH_baseline.json together with the change that shifted it.
# The baseline carries both benchmark medians and the loadgen serving
# metrics (QPS, p99), so one file anchors both gates.
bench-baseline: load-smoke stream-smoke
	$(GO) test . -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) | tee bench.txt
	$(GO) run ./cmd/benchdiff record -o BENCH_baseline.json -require $(BENCH_REQUIRE) \
		$(foreach r,$(LOAD_REPORTS),-load $(r)) bench.txt

# Reproducible load smoke: replay the seeded Zipf workload against two
# spawned loopback deployments (no external service, models synthetic
# and warm) and write client-side QPS + exact latency quantiles. Any
# request-level failure exits nonzero, so the smoke is a gate by itself.
# The single-query run uses fewer workers and 8x requests: each request
# is so cheap that at high concurrency its gated p99 measured worker
# queueing jitter, not the serving path.
load-smoke:
	$(GO) run ./cmd/loadgen -spawn -requests $$((8 * $(LOAD_REQUESTS))) -workers 4 \
		-label single -report LOADGEN_single.json
	$(GO) run ./cmd/loadgen -spawn -spawn-shards 2 -batch 8 -workers 8 \
		-requests $(LOAD_REQUESTS) -label batch -report LOADGEN_batch.json

# Streaming + coalescing smoke (DESIGN.md §15): the same 2-shard front
# consumed as NDJSON frames (every frame validated, TTFR p50/p95/p99
# recorded) and a duplicate-heavy batched workload whose hot pool
# exercises both coalescing tiers — batched so within-batch dedup runs
# hot, and at 8x requests because coalescing makes each request cheap
# enough that the gated p99 needs the larger sample to measure the
# serving path rather than one-scheduler-hiccup noise. Both reports
# feed the load gate; load-gate and bench-baseline expect load-smoke
# AND stream-smoke to have run first.
stream-smoke:
	$(GO) run ./cmd/loadgen -spawn -spawn-shards 2 -batch 16 -stream -workers 8 \
		-requests $(LOAD_REQUESTS) -label stream -report LOADGEN_stream.json
	$(GO) run ./cmd/loadgen -spawn -dup-rate 0.6 -batch 8 -workers 8 \
		-requests $$((8 * $(LOAD_REQUESTS))) -label dup -report LOADGEN_dup.json

# Serving-regression gate: fold the load reports into a benchdiff
# summary and diff its metrics against the committed baseline — QPS
# dropping or p99/TTFR growing by more than LOAD_THRESHOLD fails,
# direction-aware, exactly like ns/op for benchmarks.
load-gate:
	$(GO) run ./cmd/benchdiff record -o LOADGEN_summary.json \
		-require $(LOAD_REQUIRE) $(foreach r,$(LOAD_REPORTS),-load $(r))
	$(GO) run ./cmd/benchdiff compare -threshold $(LOAD_THRESHOLD) BENCH_baseline.json LOADGEN_summary.json

# Statement coverage over internal/... with a ratcheted floor: the per-
# package table comes from go test itself, the total is gated against
# COVER_FLOOR.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "FAIL: total coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "total coverage %.1f%% (floor %.1f%%)\n", t, floor }'

vet:
	$(GO) vet ./...

# repolint enforces the determinism/concurrency invariants (randomness
# via internal/randx, no wall clock on golden paths, no map-order
# leaks, fan-out through internal/parallel, no locks by value) plus the
# dataflow proofs (hotpath allocation-freedom, lock discipline, RCU
# atomic consistency, goroutine/defer error sinks). Zero unsuppressed
# findings is the bar; suppressions need a reason. Exit codes: 0 clean,
# 1 findings (stdout), 2 repolint could not run (stderr).
lint: lint-ratchet
	$(GO) run ./cmd/repolint ./...

# Same gate, plus a SARIF 2.1.0 log for code-scanning UIs; CI uploads
# repolint.sarif as an artifact. The exit code still counts only
# unsuppressed findings — the log additionally carries suppressed ones
# with their //lint:ignore justifications for auditing.
lint-sarif: lint-ratchet
	$(GO) run ./cmd/repolint -sarif repolint.sarif ./...

# The suppression ratchet: count the findings repolint was told to ignore
# and fail past LINT_IGNORE_CEIL.
lint-ratchet:
	@n=$$($(GO) run ./cmd/repolint -show-ignored ./... | grep -c '^ignored:'); \
	if [ "$$n" -gt "$(LINT_IGNORE_CEIL)" ]; then \
		echo "FAIL: $$n //lint:ignore suppressions exceed the ceiling of $(LINT_IGNORE_CEIL)"; exit 1; \
	fi; \
	echo "$$n //lint:ignore suppressions (ceiling $(LINT_IGNORE_CEIL))"

# Chaos suite: deterministic fault injection (internal/faulty) driving
# the sampling fabric and the scatter-gather cluster end to end —
# injected transport faults, truncated frames, server restarts, tripped
# circuit breakers, a shard killed mid-query — always under the race
# detector. Every fault pattern is seeded, so failures replay.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/netsearch ./internal/service ./internal/faulty ./internal/cluster ./internal/loadgen

# Short-budget fuzz pass over the parser-shaped attack surfaces:
# tokenization, stemming, and the two model readers. Each target gets
# FUZZTIME; failures reproduce with `go test -fuzz` on the package.
fuzz-smoke:
	$(GO) test ./internal/analysis -run xxx -fuzz '^FuzzTokenize$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/analysis -run xxx -fuzz '^FuzzPorter$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/langmodel -run xxx -fuzz '^FuzzRead$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/langmodel -run xxx -fuzz '^FuzzReadBinary$$' -fuzztime=$(FUZZTIME)

# Snapshot decoder fuzz smoke: mutated headers, section tables, and
# payloads against the QBSNAP1 reader. The decoder must reject every
# corruption with an error, never a panic or a silently-wrong Compiled.
snapshot-fuzz:
	$(GO) test ./internal/selection -run xxx -fuzz '^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME)

# The full local gate: everything CI runs, in the same order.
ci: build vet lint test race chaos fuzz-smoke snapshot-fuzz cover bench-check load-smoke stream-smoke load-gate

clean:
	$(GO) clean ./...
