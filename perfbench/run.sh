#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-many --seed 1 --seconds 35 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: Go's
# build cache, the binary, and the benchmark's reports, traces and
# temporary stores.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" --out "$root/.bench_build/reports" "$@"
