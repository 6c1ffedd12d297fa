#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload whatif-campaign --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# spans, profiles and scratch stores the benchmark leaves behind.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The toolchain's caches, module path, telemetry counters and user config
# all point into the checkout; no module is downloaded.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS="" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
