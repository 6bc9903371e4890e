#!/bin/bash
# The command BENCHMARK.json names: builds the harness from source and runs
# it, keeping what the Go toolchain writes — build cache, temporary files,
# the binary — under .bench_build/ of the checkout.
#
#   bash benchmark/run.sh --workload scan_solo --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/cache GOTMPDIR=$build/tmp
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
