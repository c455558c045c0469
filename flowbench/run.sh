#!/usr/bin/env bash
# Builds the flowgen benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash flowbench/run.sh --workload label --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary, traces and scratch files all live in
# .bench_build (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
export FLOWBENCH_DIR="$build"
(cd "$root/flowbench" && go build -o "$build/flowbench" .)
exec "$build/flowbench" "$@"
