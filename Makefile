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
BENCH_PATTERN := SamplerThroughput|SuiteBaselines|Rank100DBs|RankDBs|TokenizeASCII|SearchScored|IncrementalRecompile|RepolintFullRepo|ScatterGather|BatchRank|HTTPRank|WireRoundTrip|WireCodec|EncodeRanking|WireSample|Porter|AddDocument|ReadBinary|IndexBuild
# Benchmarks that must be present in every recording; benchdiff record
# fails otherwise, so a renamed/filtered-out rank benchmark cannot
# silently drop out of the regression gate.
BENCH_REQUIRE := Rank100DBs,RankDBs,IncrementalRecompile,RepolintFullRepo,ScatterGather,BatchRank,HTTPRank,WireRoundTrip,WireCodec,EncodeRanking,WireSample,Porter,AddDocument,SamplerThroughput,ReadBinary,IndexBuild
# Where they live: the root package, the wire codec's and the HTTP ranking
# encoder's own (their micro-benchmarks reach unexported encoders), the
# stemmer's, the learn step's and model loader's, and the index build's.
BENCH_PKGS := . ./internal/netsearch ./internal/serving ./internal/analysis ./internal/langmodel ./internal/index
# Rounds of bench-check, each one run per benchmark on either side (and the
# runs per benchmark of bench-baseline); benchdiff keeps the median, which
# is what makes a 25% threshold usable on noisy shared CI machines.
BENCH_COUNT ?= 5
BENCH_OUT ?= BENCH_current.json

# Ratcheted statement-coverage floor over ./internal/... — raise it as
# coverage grows; never lower it to admit a regression. Current: 90.7%.
COVER_FLOOR ?= 88.6

# Ratcheted ceiling on honoured //lint:ignore suppressions, the mirror
# image of COVER_FLOOR: lower it as suppressions are retired; never raise
# it to admit a new one. Current: 5.
LINT_IGNORE_CEIL ?= 5

.PHONY: all build test race bench bench-all bench-check bench-baseline \
	bench-pairs need-parent experiments-check cover vet fmt-check lint \
	lint-ratchet chaos fuzz-smoke ci clean

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

# Benchmark regression gate against the parent, measured in the same
# session: PARENT is a checkout of the commit to compare against. Each of
# BENCH_COUNT rounds runs the tier-1 set once in PARENT and once here,
# alternating, so a slow phase of the machine lands on both sides. The
# medians of each side are recorded (this side's to BENCH_OUT, which CI
# uploads and which must hold every BENCH_REQUIRE benchmark), and the gate
# fails if any benchmark's ns/op grew more than 25% over the parent's.
bench-check: need-parent
	@rm -f bench.txt bench-parent.txt
	@for i in $$(seq $(BENCH_COUNT)); do \
		echo "bench-check round $$i of $(BENCH_COUNT): parent, then change"; \
		(cd "$(PARENT)" && $(GO) test $(BENCH_PKGS) -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count=1) >>bench-parent.txt || exit 1; \
		$(GO) test $(BENCH_PKGS) -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count=1 >>bench.txt || exit 1; \
	done
	$(GO) run ./cmd/benchdiff record -o BENCH_parent.json bench-parent.txt
	$(GO) run ./cmd/benchdiff record -o $(BENCH_OUT) -require $(BENCH_REQUIRE) bench.txt
	$(GO) run ./cmd/benchdiff compare -threshold 0.25 BENCH_parent.json $(BENCH_OUT)

# Refresh the committed record of the tier-1 set's medians. Run on a quiet
# machine and commit the resulting BENCH_baseline.json together with the
# change that shifted it; bench-check gates against the parent, not this.
bench-baseline:
	$(GO) test $(BENCH_PKGS) -run xxx -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) | tee bench.txt
	$(GO) run ./cmd/benchdiff record -o BENCH_baseline.json -require $(BENCH_REQUIRE) bench.txt

# The serving system's one measuring stick: BENCHMARK.json's workloads run
# as alternating parent/change pairs, PARENT being a checkout of the
# commit to compare against, with one verdict per workload and end-to-end
# metric (regressed / unresolved / improved / unchanged; cmd/benchdiff
# pairs.go has the rule). The command, workloads, directions and bounds
# all come from BENCHMARK.json; PAIRS and SECONDS default to the rule's
# ten pairs and the benchmark's own window, and CI shortens both.
bench-pairs: need-parent
	$(GO) run ./cmd/benchdiff pairs $(if $(PAIRS),-pairs $(PAIRS)) $(if $(SECONDS),-seconds $(SECONDS)) $(PARENT)

# bench-check, bench-pairs and ci compare against PARENT, a checkout of the
# parent commit (a clone or a worktree).
need-parent:
	@test -n "$(PARENT)" || { echo "usage: make $(MAKECMDGOALS) PARENT=<checkout of the parent commit>"; exit 2; }

# The reproduction record cannot go stale: re-run the paper-size suite
# (deterministic in -scale and -seed, ~20 s) and diff it, without its
# timing line, against the committed experiments_scale1.txt that
# EXPERIMENTS.md quotes. After an intended change, regenerate the file
# with the same pipeline and re-read EXPERIMENTS.md against it.
experiments-check:
	$(GO) run ./cmd/experiments -scale 1 -seed 1 | grep -v '^done in ' | diff experiments_scale1.txt -

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

# Every tracked Go file is gofmt-clean, except the lint fixtures under
# testdata, which keep whatever layout their findings need. gofmt is the
# toolchain's own, so the gate formats as the go in use does.
fmt-check:
	@out=$$(git ls-files -- '*.go' ':!*/testdata/*' | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l); \
	if [ -n "$$out" ]; then echo "FAIL: not gofmt-clean:"; echo "$$out"; exit 1; fi; \
	echo "gofmt clean"

# repolint enforces the determinism invariants (randomness via
# internal/randx, no wall clock on golden paths, no map-order leaks,
# fan-out through internal/parallel) plus one dataflow proof, lock
# discipline; locks by value are vet's, and allocation-freedom of the
# serving path is the zero-allocation tests' (DESIGN.md §12). Zero
# unsuppressed findings is the bar; suppressions need a reason. Exit
# codes: 0 clean, 1 findings (stdout), 2 repolint could not run (stderr).
lint: lint-ratchet
	$(GO) run ./cmd/repolint ./...

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
	$(GO) test -race -run 'Chaos' ./internal/netsearch ./internal/service ./internal/faulty ./internal/cluster

# Short-budget fuzz pass over the parser-shaped attack surfaces —
# tokenization, stemming (the Porter kernel against the implementation it
# replaced), the learn step (AddDocument against the fold it replaced), the
# QBLM1 model reader and the netsearch frame decoders — over the scorer's top-k
# selection against sort-then-slice, and over the HTTP ranking encoder
# against encoding/json. Each target gets FUZZTIME; failures reproduce with
# `go test -fuzz` on the package.
fuzz-smoke:
	$(GO) test ./internal/analysis -run xxx -fuzz '^FuzzTokenize$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/analysis -run xxx -fuzz '^FuzzPorter$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/langmodel -run xxx -fuzz '^FuzzAddDocument$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/langmodel -run xxx -fuzz '^FuzzReadBinary$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/selection -run xxx -fuzz '^FuzzRankTop$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netsearch -run xxx -fuzz '^FuzzDecodeFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serving -run xxx -fuzz '^FuzzEncodeRanking$$' -fuzztime=$(FUZZTIME)

# The full local gate: everything CI runs, in the same order. PARENT is
# bench-check's: make ci PARENT=<checkout of the parent commit>.
ci: need-parent build vet fmt-check lint test race chaos fuzz-smoke cover experiments-check bench-check

clean:
	$(GO) clean ./...
