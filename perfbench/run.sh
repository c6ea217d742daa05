#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload warm-runs --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout's root. Build outputs, the Go build cache and the
# benchmark's scratch files all stay under .bench_build in that root.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -scratch "$build" "$@"
