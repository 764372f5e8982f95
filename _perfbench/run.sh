#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash _perfbench/run.sh --workload als-inproc --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, model files, traces) stays under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)

# Not exec: the benchmark reads RUSAGE_CHILDREN for its worker
# processes, and an exec'd process would inherit this shell's reaped
# children (the compiler) in those counters.
"$build/perfbench" --out "$build/perfbench-out" "$@"
