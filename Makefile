# The canonical tier-1 gate (see ROADMAP.md): `make check` is what CI
# and every PR must keep green. Individual stages are separate targets.

GO ?= go

.PHONY: check fmt vet build test bench bench-json race docs traceguard harnessguard fuzz-smoke mapbench-smoke cover

# check includes docs, whose recipe runs `go vet ./...` — listing vet
# here too would vet the module twice per gate — and mapbench-smoke,
# so a change that breaks the benchmark's build fails locally too.
check: fmt build test traceguard harnessguard fuzz-smoke docs mapbench-smoke

# Fuzz smoke: a few hundred executions of each fuzz target — the
# binary-frame decoders of internal/wirebin, the /v1 JSON codec of
# internal/service, the /v1 and /v2 task-graph builds against one
# digest, the CSR builder of internal/graph against its
# sort-and-merge oracle, the /v1 edge-list decoder against
# encoding/json, the coarse supertask graphs of internal/taskgraph
# against their triple-staging oracle, and the root package's
# allocation deltas applied to torus, fat-tree and dragonfly engines —
# enough for the seed corpus plus mutations to walk every decoder,
# cheap enough for every `make check`. Go allows
# one -fuzz pattern per invocation, hence the loops. Longer runs: raise
# -fuzztime (e.g. `go test ./internal/wirebin -fuzz=FuzzFrameDecoders
# -fuzztime=60s`).
fuzz-smoke:
	@set -e; for f in FuzzFrameDecoders FuzzParseTasks FuzzDecodeTopology FuzzDecodeAllocation; do \
		$(GO) test ./internal/wirebin -run='^$$' -fuzz="^$$f$$" -fuzztime=300x >/dev/null || exit 1; \
	done; for f in FuzzDecodeJSONMap FuzzDecodeJSONRemap FuzzDecodeJSONPortfolio FuzzTaskGraphDigest FuzzEdgeList; do \
		$(GO) test ./internal/service -run='^$$' -fuzz="^$$f$$" -fuzztime=300x >/dev/null || exit 1; \
	done; $(GO) test ./internal/graph -run='^$$' -fuzz='^FuzzFromTriples$$' -fuzztime=300x >/dev/null || exit 1; \
	$(GO) test ./internal/taskgraph -run='^$$' -fuzz='^FuzzCoarseGraph$$' -fuzztime=300x >/dev/null || exit 1; \
	$(GO) test . -run='^$$' -fuzz='^FuzzAllocationDelta$$' -fuzztime=300x >/dev/null || exit 1; \
	echo "fuzz-smoke: 12 targets clean"

# mapbench smoke: cmd/mapbench is a module of its own, so the root
# `go test ./...` never compiles it, yet it builds against the service
# and client API (service.Metrics, service.MapRequest, wirebin.Metrics).
# Vet it and run its tests; part of `make check` (about 10 s).
mapbench-smoke:
	cd cmd/mapbench && $(GO) vet ./... && $(GO) test ./...

# Tracing must stay off the hot leaves: internal/ds and internal/graph
# are the inner-loop data structures, and an internal/trace import
# there would put span plumbing inside loops that run millions of
# times per solve. Counter call sites belong at stage boundaries.
traceguard:
	@if grep -rn '"repro/internal/trace"' internal/ds internal/graph 2>/dev/null; then \
		echo "internal/trace must not be imported from internal/ds or internal/graph"; exit 1; \
	fi

# The daemon serves the mapping pipeline, not the paper's evaluation
# harness: the dataset generator, the partitioner personalities and
# their hypergraph stack, the renderers and the experiment driver stay
# out of cmd/mapd's link closure. A root re-export of any of them would
# pull it back in, so this fails the moment one reappears.
harnessguard:
	@bad="$$($(GO) list -deps ./cmd/mapd | grep -E '^repro/internal/(gen|partitioners|hpart|hypergraph|viz|exp)$$')"; \
	if [ -n "$$bad" ]; then \
		echo "cmd/mapd must not link the evaluation harness:"; echo "$$bad"; exit 1; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Docs gate: every example must build and run to completion (each
# self-checks its invariants and exits non-zero on a regression; all
# nine run in a few seconds), vet must be clean, and every intra-repo
# markdown link in the entry-point docs must resolve (cmd/docscheck).
# Part of `make check`, so CI fails on a dead link or a bit-rotted
# example before a reader does.
docs:
	@set -e; bin=$$(mktemp -d); trap 'rm -rf '$$bin EXIT; \
	$(GO) build -o $$bin/ ./examples/...; \
	for ex in $$bin/*; do \
		$$ex >/dev/null || { echo "docs: examples/$$(basename $$ex) failed"; exit 1; }; \
	done; echo "docs: $$(ls $$bin | wc -l) examples ran clean"
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md ROADMAP.md docs/ARCHITECTURE.md

# Bench smoke: one iteration of the engine benchmarks, and of the warm
# mapd request path on both protocols at one client, proves the
# service API's hot paths still run; full numbers via
# `go test -bench=.`.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkEngine' -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkServeParallel/(binary|json)/c1$$' -benchtime=1x ./internal/service

# Bench tracking: run the engine benchmarks at a stable iteration
# count — with allocation stats, so the scratch-arena trajectory is
# tracked alongside ns/op — and record them as JSON diffable PR over
# PR (BENCH_PR<n>.json). The large parallel-solve and refinement
# instances run at a lower iteration count: one solve is ~10^8 ns, and
# the machine-size sweep holds one job fixed on growing fat trees. The
# grouping and CSR-builder micro-benchmarks isolate the launch path's
# dominant stage and the graph construction inside it; the coarse-graph
# and metrics micro-benchmarks isolate the coarsen and metrics stages at
# the launch and remap shapes.
# BENCH_OUT has no default, so a recording never overwrites an earlier
# PR's point: `make bench-json BENCH_OUT=BENCH_PR<n>.json`.
BENCH_NOTES ?=
bench-json:
	@if [ -z "$(BENCH_OUT)" ]; then echo "bench-json: set BENCH_OUT=BENCH_PR<n>.json"; exit 1; fi
	@set -e; tmp=$$(mktemp); trap 'rm -f '$$tmp EXIT; \
	$(GO) test -run='^$$' -bench='BenchmarkEngine(Reuse|ColdStart|CacheHit|RunBatch|Portfolio)|BenchmarkSolveTraced' -benchmem -benchtime=50x -count=1 . > $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkEngineParallelSolve|BenchmarkRefineMC|BenchmarkRemapVsCold|BenchmarkHeteroSolve|BenchmarkGeomSolve|BenchmarkSolveMachineSize' -benchmem -benchtime=5x -count=1 . >> $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkServeParallel' -benchmem -benchtime=200x -count=1 ./internal/service >> $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkGroupTasks' -benchmem -benchtime=20x -count=1 ./internal/taskgraph >> $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkCoarseGraph' -benchmem -benchtime=200x -count=1 ./internal/taskgraph >> $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkComputeMetrics' -benchmem -benchtime=200x -count=1 ./internal/metrics >> $$tmp; \
	$(GO) test -run='^$$' -bench='BenchmarkFromTriples' -benchmem -benchtime=200x -count=1 ./internal/graph >> $$tmp; \
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) $(BENCH_NOTES) < $$tmp
	@echo "wrote $(BENCH_OUT)"

# Race gate: the engine's concurrent paths (batch pool, intra-request
# parallelism, portfolio racing, incremental remapping, the parallel
# congestion refinement and the wire-vs-in-memory Solve equivalence),
# the parallel/metrics/partition/arena/core/remap plumbing those are
# built on — including the graph builders and grouping, whose forked
# bisections build subgraphs concurrently from one arena — plus the
# whole mapd service package (concurrent clients, portfolio and remap
# endpoints, cache churn, cancellation, multi-slot accounting).
race:
	$(GO) test -race -run='Engine|Batch|Portfolio|Solve|RefineMC|Remap|Geom' .
	$(GO) test -race ./internal/parallel/... ./internal/arena/... ./internal/graph/... ./internal/partition/... ./internal/taskgraph/... ./internal/metrics/... ./internal/core/... ./internal/remap/... ./internal/trace/... ./internal/geom/... ./internal/sfc/...
	$(GO) test -race ./internal/service/...

# Coverage report: per-package statement coverage across the module
# plus the total. Non-blocking in CI — the number is a trend to watch,
# not a gate to game.
cover:
	@$(GO) test -coverprofile=coverage.out ./... | grep -v '\[no test files\]'
	@$(GO) tool cover -func=coverage.out | tail -1
	@echo "full per-function detail: go tool cover -func=coverage.out"
