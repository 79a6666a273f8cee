#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's own source and runs it.
# Everything the Go toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ in the checkout; the arguments go to the
# harness untouched (see benchmark/README.md).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

go build -o "$build/graphz-benchmark" ./benchmark
exec "$build/graphz-benchmark" "$@"
