#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-msg --seed 1 --seconds 30 --trace 0
#
# Every build output, Go cache and temporary file stays under .bench_build
# at the root of the checkout; the Go toolchain on PATH is used as is,
# without network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
