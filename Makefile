# AnalogFold build/test entry points. `make ci` runs scripts/ci.sh, which calls
# the race, chaos, cluster-chaos, fuzz-smoke and bench-test targets below, so
# their package and fuzz-target lists live here only.

GO ?= go

.PHONY: build test vet cross errcheck race chaos serve-chaos cluster-chaos dataset-chaos fuzz-smoke bench bench-test ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross builds and vets the portable tensor kernels for arm64, so the Go
# path behind the amd64 assembly keeps compiling (go vet ./... runs asmdecl
# over the assembly itself). Where the host can run GOAMD64=v3 code, it also
# reruns the kernel oracle tests in that build, whose compiler may contract
# the Go kernels' multiply-adds (TestSIMDOnlyWhereGoRounds checks the
# dispatch follows), and the fused message op's oracle, whose explicit
# product rounding must keep it on the unfused chain's bits there too.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	if [ "$$(uname -m)" = x86_64 ] && grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo && grep -qw bmi2 /proc/cpuinfo; then \
		GOAMD64=v3 $(GO) test -count=1 -run 'Kernels|SIMD' ./internal/tensor/ && \
		GOAMD64=v3 $(GO) test -count=1 -run 'MessageSum' ./internal/ad/; \
	fi

# errcheck is a grep-based pass over the repo's error-returning helpers:
# bare statement calls that drop an error fail the build.
errcheck:
	./scripts/errcheck.sh

# race runs the packages that execute work concurrently under the race
# detector with short settings; the full suite under -race is much slower.
# ad and tensor are in the list because relax workers share a frozen model's
# weight tensors across concurrent tape sessions — the race detector proves
# the read-only sharing contract. parallel, relax, route, serve and dataset
# are not: chaos below runs every one of their tests under -race (the
# faultinject tag only adds the chaos tests to each package's list). Nor is
# cluster: cluster-chaos runs its whole suite under -race the same way.
# route's router-reuse and shared-grid tests run ten more times, because a
# pooled router's state leaking between routes need not show in one run.
race:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/circuit/ ./internal/gnn3d/ ./internal/ad/ ./internal/tensor/ ./internal/servecache/
	$(GO) test -race -count=10 -run 'Reuse|Concurrent' ./internal/route/

# chaos compiles the deterministic fault scheduler into the injection points
# (faultinject build tag) and runs the fault-injection suite under the race
# detector: every injected fault must recover or surface a typed error.
chaos:
	$(GO) test -race -count=1 -tags faultinject ./internal/fault/... ./internal/parallel/ ./internal/relax/ ./internal/route/ ./internal/core/ ./internal/serve/ ./internal/dataset/
	$(GO) test -race -count=1 -tags faultinject -run Chaos ./internal/gnn3d/

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
# -fuzzminimizetime caps the minimization of each new input (60s by
# default), so the budget goes to fuzzing rather than ending inside one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzNetlistBuild -fuzztime 10s -fuzzminimizetime 2s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz FuzzTensorTryFromSlice -fuzztime 10s -fuzzminimizetime 2s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzMatMulKernels -fuzztime 10s -fuzzminimizetime 2s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz FuzzTapeReset -fuzztime 10s -fuzzminimizetime 2s ./internal/ad/
	$(GO) test -run '^$$' -fuzz FuzzMessageSum -fuzztime 10s -fuzzminimizetime 2s ./internal/ad/
	$(GO) test -run '^$$' -fuzz FuzzPQHeapOrder -fuzztime 10s -fuzzminimizetime 2s ./internal/route/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 10s -fuzzminimizetime 2s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzParseHealth -fuzztime 10s -fuzzminimizetime 2s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzModelLoad -fuzztime 10s -fuzzminimizetime 2s ./internal/gnn3d/
	$(GO) test -run '^$$' -fuzz FuzzReadSpice -fuzztime 10s -fuzzminimizetime 2s ./internal/export/
	$(GO) test -run '^$$' -fuzz FuzzReadSPEF -fuzztime 10s -fuzzminimizetime 2s ./internal/export/

bench:
	$(GO) test -bench=. -benchmem .

# bench-test runs the tests of the layered benchmark module in bench/ (its own
# Go module, so the root go test ./... does not reach it).
bench-test:
	cd bench && $(GO) test ./...

ci:
	./scripts/ci.sh
