# AnalogFold build/test entry points. `make ci` runs scripts/ci.sh, which calls
# the race, chaos, cluster-chaos, fuzz-smoke and bench-test targets below, so
# their package and fuzz-target lists live here only.

GO ?= go

.PHONY: build test vet errcheck race chaos serve-chaos cluster-chaos dataset-chaos fuzz-smoke bench bench-test bench-parallel bench-route bench-model bench-serve obs-bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# errcheck is a grep-based pass over the repo's error-returning helpers:
# bare statement calls that drop an error fail the build.
errcheck:
	./scripts/errcheck.sh

# race runs the packages that execute work concurrently under the race
# detector with short settings; the full suite under -race is much slower.
# ad and tensor are in the list because relax workers share a frozen model's
# weight tensors across concurrent tape sessions — the race detector proves
# the read-only sharing contract.
race:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/parallel/ ./internal/relax/ ./internal/circuit/ ./internal/gnn3d/ ./internal/ad/ ./internal/tensor/ ./internal/dataset/ ./internal/route/ ./internal/servecache/ ./internal/serve/ ./internal/cluster/

# chaos compiles the deterministic fault scheduler into the injection points
# (faultinject build tag) and runs the fault-injection suite under the race
# detector: every injected fault must recover or surface a typed error.
chaos:
	$(GO) test -race -count=1 -tags faultinject ./internal/fault/... ./internal/parallel/ ./internal/relax/ ./internal/route/ ./internal/core/ ./internal/serve/ ./internal/dataset/

# serve-chaos runs the daemon's fault-injection suite under the race
# detector: concurrent clients against a poisoned model must get typed errors
# or well-formed degraded responses, the breaker must open, and SIGTERM must
# drain without leaking goroutines.
serve-chaos:
	$(GO) test -race -count=1 -tags faultinject ./internal/serve/

# cluster-chaos runs the coordinator's replica-kill suite under the race
# detector: replicas are killed mid-drain, mid-request and mid-hedge while
# concurrent clients hammer the coordinator — no request may be lost or
# double-answered, answers must be bit-identical to a single-daemon run while
# any healthy replica exists, accounting must reconcile (accepted ==
# answered + shed), and the coordinator's drain must leak no goroutines.
cluster-chaos:
	$(GO) test -race -count=1 -tags faultinject ./internal/cluster/

# dataset-chaos runs the corpus generator's fault-injection suite under the
# race detector: injected label failures must drop samples (refusing the whole
# corpus only past the half-empty threshold), NaN labels must never reach the
# corpus, and cancellation mid-fan-out must leak no goroutines.
dataset-chaos:
	$(GO) test -race -count=1 -tags faultinject ./internal/dataset/

# fuzz-smoke gives each native fuzz target a short budget: enough to catch a
# freshly introduced panic or untyped error, cheap enough for every CI run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNetlistBuild -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz FuzzTensorTryFromSlice -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzMatMulKernels -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzTapeReset -fuzztime 10s ./internal/ad/
	$(GO) test -run '^$$' -fuzz FuzzPQHeapOrder -fuzztime 10s ./internal/route/

bench:
	$(GO) test -bench=. -benchmem .

# bench-test runs the tests of the layered benchmark module in bench/ (its own
# Go module, so the root go test ./... does not reach it).
bench-test:
	cd bench && $(GO) test ./...

# bench-parallel measures the serial-vs-parallel wall time of the
# parallelized phases and writes BENCH_parallel.json.
bench-parallel:
	$(GO) test -run NONE -bench BenchmarkParallelSpeedup -benchtime 1x .

# bench-route measures the detailed-router hot path per OTA benchmark
# (wall time, allocs, routed quality) and writes BENCH_route.json; the
# in-package micro-benchmarks cover the A* core and the negotiation loop under
# uniform and sampled guidance.
bench-route:
	$(GO) test -run NONE -bench BenchmarkRouteReport -benchtime 1x .
	$(GO) test -run NONE -bench 'BenchmarkAstarCore|BenchmarkRouteNegotiation' -benchmem -benchtime 100x ./internal/route/

# bench-model measures the 3DGNN inference core (tape-backed session vs the
# transient path, batched vs sequential candidate scoring) and writes
# BENCH_model.json; the in-package micro-benchmarks cover the same arms with
# go-bench statistics, the session cycle at the served size (Hidden 24,
# RBFBins 12), and the three matmul kernels against their reference loops at
# the OTA1 PP-edge shape.
bench-model:
	$(GO) test -run NONE -bench BenchmarkModelReport -benchtime 1x .
	$(GO) test -run NONE -bench 'BenchmarkModelCore|BenchmarkCandidateScoring|BenchmarkRelaxStep' -benchmem -benchtime 100x ./internal/gnn3d/ ./internal/relax/
	$(GO) test -run NONE -bench BenchmarkMatMulKernels -benchtime 2000x ./internal/tensor/

# bench-serve measures batch-first serving (duplicate-heavy mix against the
# result cache + singleflight, all-distinct mix through micro-batch scoring
# waves, wave-scoring allocation model) and writes BENCH_serve.json.
bench-serve:
	$(GO) test -run NONE -bench BenchmarkServeThroughput -benchtime 1x .

# obs-bench measures the telemetry layer's enabled-path overhead on each
# instrumented hot path (routing, relaxation) and writes BENCH_obs.json;
# the budget is <5%, enforced cheaply in CI by TestObsOverheadSmoke.
obs-bench:
	$(GO) test -run NONE -bench BenchmarkObsOverhead -benchtime 1x .

ci:
	./scripts/ci.sh
