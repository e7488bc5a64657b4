#!/usr/bin/env bash
# Builds bionav-server and the navbench driver from source into
# .bench_build/ and runs the benchmark from the root of a checkout:
#
#   bash navbench/run.sh --workload topdown --seed 1 --seconds 30 --trace 0
#
# Everything it builds, writes or caches stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/" ./cmd/bionav-server ./navbench >&2
exec "$build/bin/navbench" -server "$build/bin/bionav-server" -out "$build/out" "$@"
