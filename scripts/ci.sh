#!/usr/bin/env sh
# CI gate: build + vet + full test suite, then race-detector passes over the
# packages that run work concurrently (worker pool, relaxation, Monte Carlo,
# training, dataset generation, serving): make race, and make chaos, which
# runs its packages' whole suites under -race with the fault scheduler
# compiled in. Package and fuzz-target lists live in the Makefile only; this
# script calls its targets.
set -eu

cd "$(dirname "$0")/.."

# CI must leave the tracked tree as it found it: no step may rewrite a
# committed file. Inside a git work tree, snapshot the tracked files' state
# (status plus a checksum of their diff against HEAD) and compare at the end.
tracked_state() { git status --porcelain --untracked-files=no && git diff HEAD | cksum; }
tracked_before=
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked_before=$(tracked_state)
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== cross-build (portable kernels) and GOAMD64=v3 kernel and message-op tests =="
make cross

echo "== gofmt =="
# Every Go file in the repository, bench/ module included, must be gofmt
# clean: gofmt -l prints the files that are not. .bench_build/ is skipped:
# it holds bench/run.sh's build cache and the generated files of a build in
# progress.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race (concurrent packages outside the chaos pass) =="
make race

echo "== chaos: go test -race -tags faultinject (fault-injection suite) =="
# The faultinject build tag compiles the deterministic fault scheduler into
# the injection points (NaN model output, router failures, stage latency);
# the chaos tests assert every injected fault recovers or surfaces a typed
# error — never a panic, never a hang past its deadline.
make chaos

echo "== trace-merge golden gate (cross-process span stitching) =="
# The distributed-tracing invariant: span summaries imported from a replica
# are remapped into a collision-free ID namespace with their parent edges
# intact, and an end-to-end coordinator run (forced failover + sharded dataset
# job) yields ONE merged Chrome trace where every replica-side span descends
# from the coordinator root. Named runs so a stitching regression fails loudly
# here rather than inside the larger suites.
go test -count=1 -run 'TestImportSpansRemap|TestTraceparentRoundTrip' ./internal/obs/
go test -count=1 -run 'TestMergedTraceAcrossProcesses' ./internal/cluster/

echo "== shard-merge bit-identity gate =="
# The load-bearing invariant of distributed generation: a corpus assembled
# from independently generated shards (any shard size) must be byte-identical
# to an uninterrupted single-process run, and a journal-resumed run must be
# byte-identical to a fresh one. Named runs so a regression fails loudly here
# rather than inside the larger suites.
go test -count=1 -run 'TestShardMergeBitIdentity|TestResumeEqualsFresh' ./internal/dataset/

echo "== cluster chaos: replica-kill suite (coordinator fault tolerance) =="
# Kills replicas mid-drain, mid-request and mid-hedge under concurrent load:
# zero client transport errors, bit-identical answers while any healthy
# replica exists, accepted == answered + shed, no leaked goroutines after the
# coordinator drains. Also covers dataset shard leases: holders killed
# mid-shard, heartbeat-expired leases, and digest-forged answers must all
# re-dispatch with dispatched == completed + redispatched.
make cluster-chaos

echo "== fuzz smoke (10s per target, 2s minimization cap) =="
# Short native-fuzz budgets: enough to catch a freshly introduced panic or
# untyped error on the input-facing surfaces (netlist builder, tensor
# constructors, inbound traceparent, the prober's /metrics decoder, the 3DGNN
# checkpoint decoder, the SPICE and SPEF decoders), a matmul kernel whose bits
# drift from the naive reference loops, a fused message op whose bits drift
# from the Gather → Mul → ScatterAdd chain, or an A* open list whose pop
# order drifts from the swapping reference heap, cheap enough to run every
# time.
make fuzz-smoke

echo "== benchmark smoke (router and model hot paths compile and run) =="
# One iteration of the routing benchmarks, uniform and guided, the open list
# on its synthetic A* trace, the matmul kernels at the served PP-edge shape,
# the model's session cycle at the golden and served sizes, and training on
# the tape and on the transient oracle: catches benchmarks that rot (compile
# errors, panics) without paying for a real measurement run.
go test -run=NONE -bench=RouteOTA1 -benchtime=1x .
go test -run=NONE -bench='BenchmarkAstarCore|BenchmarkRouteNegotiation$|BenchmarkRouteNegotiationGuided$|BenchmarkPQHeap' -benchtime=1x ./internal/route/
go test -run=NONE -bench='BenchmarkMatMulKernels' -benchtime=1x ./internal/tensor/
go test -run=NONE -bench='BenchmarkModelCore|BenchmarkFit' -benchtime=1x ./internal/gnn3d/

echo "== layered benchmark module tests =="
# bench/ is a Go module of its own (it replaces analogfold with ../), so the
# root go test ./... never reaches it: its workload smoke runs, statistics and
# the BENCHMARK.json <-> metric-table check (TestSpecMatchesTables) run here.
make bench-test

echo "== unchecked-error grep =="
./scripts/errcheck.sh

echo "== stray-print grep (instrumented packages log via internal/obs) =="
# The pipeline's hot packages must report through the telemetry layer
# (spans/events/slog), not ad-hoc stdout/stderr prints that bypass both the
# flight recorder and -log-format. Test files are exempt.
if grep -rn 'fmt\.Print' \
    --include='*.go' --exclude='*_test.go' \
    internal/route/ internal/relax/ internal/gnn3d/ internal/serve/; then
  echo "FAIL: fmt.Print* in instrumented packages — use obs spans/events or slog" >&2
  exit 1
fi

echo "== placement grep (commands and examples place through core.Flow) =="
# One placement path: outside tests, only internal/core calls place.Place
# and grid.Build (besides their own packages), so every command and example
# routes the layout Table 2 measures, at the flow's annealing budget.
stray=$(
  { grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'place\.Place(' . |
      grep -v -e '^\./internal/core/' -e '^\./internal/place/' || true
    grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'grid\.Build(' . |
      grep -v -e '^\./internal/core/' -e '^\./internal/grid/' || true; }
)
if [ -n "$stray" ]; then
  echo "$stray" >&2
  echo "FAIL: place.Place/grid.Build outside internal/core — build a core.Flow (core.NewFlowCtx) instead" >&2
  exit 1
fi

echo "== handler-span grep (every work handler opens a span) =="
# Every HTTP work/proxy handler must open an obs span so per-request latency
# attribution and cross-process trace merging see every hop; health probes and
# metrics scrapes are exempt. The awk pass extracts each handler body (first
# column-0 closing brace ends it) and requires an obs.StartSpan call inside.
if ! awk '
  /^func .*handle(Guidance|Route|DatasetShard|Work|Dataset)\(/ { name = $0; in_fn = 1; ok = 0; next }
  in_fn && /obs\.StartSpan/ { ok = 1 }
  in_fn && /^}/ { if (!ok) { printf "missing obs.StartSpan in: %s\n", name; bad = 1 } in_fn = 0 }
  END { exit bad }
' internal/serve/server.go internal/serve/dataset.go \
  internal/cluster/cluster.go internal/cluster/datagen.go; then
  echo "FAIL: work handler without a span — every HTTP work endpoint must call obs.StartSpan" >&2
  exit 1
fi

if [ -n "$tracked_before" ] && [ "$(tracked_state)" != "$tracked_before" ]; then
  echo "FAIL: CI changed tracked files:" >&2
  git status --porcelain --untracked-files=no >&2
  exit 1
fi

echo "CI OK"
