#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload flow_cold --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare runs/a/*.out -- runs/b/*.out
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=readonly -buildvcs=false"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/analogfold-bench" .)
exec "$out/analogfold-bench" "$@"
