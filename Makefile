GO ?= go

.PHONY: all build vet test race check bench bench-e2e bench-core bench-decision bench-resilience bench-region bench-telemetry bench-throughput bench-corpus bench-placement validate-specs clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The parallel experiment
# harness (internal/experiments/pool.go) must stay clean here; CI runs this
# target on every push.
race:
	$(GO) test -race ./...

check: build vet race

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-e2e runs the end-to-end benchmark (bench/e2e/README.md): four
# Ursa-managed workloads with per-layer host time. Pass arguments through
# ARGS, e.g. make bench-e2e ARGS="-workloads social-10x -runs 1".
bench-e2e:
	bash bench/e2e/run.sh $(ARGS)

# bench-core runs the simulator hot-path microbenchmarks (event core,
# virtual-time CPU scheduler, windowed metrics queries) plus one service's
# exploration at the harness's settings (the unit-level view of setup's
# allocation), and writes a JSON report with ns/op, B/op and allocs/op per
# benchmark. Diff BENCH_simcore.json to spot perf regressions in the hot
# path.
bench-core:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkCPUSched|BenchmarkWindowed|BenchmarkExploreService' \
		-benchmem ./internal/sim ./internal/services ./internal/metrics ./internal/core \
		| $(GO) run ./cmd/benchjson > BENCH_simcore.json
	@echo wrote BENCH_simcore.json

# bench-decision runs the control-plane decision-path benchmarks: the
# optimised solver vs the reference implementation kept as a test oracle (the headline
# Solve/SolveReference ratio), the window estimator and the incremental
# re-solve fast path. Diff BENCH_decision.json to spot decision-latency
# regressions.
bench-decision:
	$(GO) test -run '^$$' -bench 'BenchmarkSolve|BenchmarkEstimateBound|BenchmarkResolveFastPath' \
		-benchmem ./internal/core \
		| $(GO) run ./cmd/benchjson > BENCH_decision.json
	@echo wrote BENCH_decision.json

# bench-resilience smoke-runs the Fig. F1 chaos grid (node failure +
# recovery on the paper testbed) once at small scale: every fault-injection
# path — crash-eviction, manager re-placement, retries — executes end to end.
bench-resilience:
	$(GO) test -run '^$$' -bench 'BenchmarkResilience' -benchtime=1x ./internal/experiments

# bench-region smoke-runs the multi-region grids once at small scale —
# Fig. R1 (whole-region outage: correlated eviction, cross-region re-solve,
# WAN-delayed RPC) and Fig. R2 (follow-the-sun spill placement) — so every
# geo-topology path executes end to end. Region-layer run time is tracked by
# the region-failover workload of bench-e2e.
bench-region:
	$(GO) test -run '^$$' -bench 'BenchmarkRegion' -benchtime=1x ./internal/experiments

# bench-telemetry runs the bounded-memory telemetry benchmarks: quantile
# sketch add/merge/query ns/op plus the headline bytes/window comparison
# between exact (raw-sample) and sketch-backed windows. Diff
# BENCH_telemetry.json to spot sketch ingest regressions or memory growth.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkSketch|BenchmarkWindowedSketch|BenchmarkTelemetry' \
		-benchmem ./internal/stats ./internal/metrics \
		| $(GO) run ./cmd/benchjson > BENCH_telemetry.json
	@echo wrote BENCH_telemetry.json

# bench-throughput runs the single-run throughput headline: a 10×-scale
# social-network app at 1000 RPS, reporting wall-clock events/sec and heap
# allocations per injected request for the execution path ("fused":
# batched arrivals + pooled step frames) and for the same app under a
# retry policy and a fixed network delay ("resilient": pooled resilient
# calls). Diff BENCH_throughput.json to track the events/sec trajectory PR
# over PR.
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkThroughput' -benchtime=3x \
		-benchmem ./internal/experiments \
		| $(GO) run ./cmd/benchjson > BENCH_throughput.json
	@echo wrote BENCH_throughput.json

# bench-corpus runs the Fig. C1 generalization study: 100 topologies sampled
# from the seeded random generator (internal/spec), each deployed under Ursa
# and every baseline, reporting per-baseline win rates and worst cells. The
# whole corpus is a pure function of the seed, so BENCH_corpus.json is
# byte-reproducible; diff it to spot decision-quality regressions on apps
# nobody hand-tuned. Takes ~15 minutes at scale 0.25.
bench-corpus:
	$(GO) run ./cmd/ursa-bench -exp figc1 -scale 0.25 -corpus-n 100 \
		-corpus-json BENCH_corpus.json -out results
	@echo wrote BENCH_corpus.json

# bench-placement runs the free-capacity index's Place+Release and SetDown
# microbenchmarks across node counts, then the Fig. S1 fleet-scaling study: a
# generated tenant fleet deployed behind the shared arbiter on synthetic
# clusters from 8 to 1024 nodes. BENCH_placement.json holds the figs1 grid;
# its simulated columns are deterministic per (seed, scale).
bench-placement:
	$(GO) test -run '^$$' -bench 'BenchmarkPlace|BenchmarkSetDown' \
		-benchmem ./internal/cluster
	$(GO) run ./cmd/ursa-bench -exp figs1 -scale 0.25 \
		-figs1-json BENCH_placement.json -out results
	@echo wrote BENCH_placement.json

# validate-specs type-checks every checked-in declarative topology file; CI
# runs this so a schema drift or a bad edit to examples/specs/ fails fast.
validate-specs:
	$(GO) run ./cmd/ursa-sim -validate examples/specs/*.yaml examples/specs/*.json

clean:
	$(GO) clean ./...
	rm -rf results
