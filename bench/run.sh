#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#
#   bash bench/run.sh --workload golden|fig12|mesh64 [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file stay under .bench_build (or $CARGO_TARGET_DIR
# when that is set); the traced run writes its profile and spans to
# bench/out. Nothing is downloaded: the module has no dependencies.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	PPROF_TMPDIR="$build/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C bench build -o "$build/powerpunch-bench" .
exec "$build/powerpunch-bench" "$@"
