#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload read_mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, temporary build files,
# the go command's own configuration and the binary stay under
# .bench_build/ in the current directory; traces are written to
# .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
