#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the harness from source inside
# the checkout (build cache included, so nothing is written outside it)
# and hands it the driver's arguments. The harness builds the daemons.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
export TMPDIR="$build/tmp"
(cd "$root/benchmark" && go build -o "$build/bin/incbenchmark" .)
INCOD_BENCH_ROOT="$root" exec "$build/bin/incbenchmark" "$@"
