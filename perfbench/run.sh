#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload flat --seed 1 --seconds 55 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything the build and the runs leave behind goes under .bench_build in
# the current directory, so nothing is read or written outside the checkout
# apart from the Go toolchain itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
