#!/usr/bin/env bash
# Entry point of the ledger (the "command" of BENCHMARK.json): builds the
# benchmark from source inside the checkout and runs it from the
# checkout's root. Every file the toolchain or the benchmark writes
# goes under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The toolchain's own files too: build cache, temporaries, module path,
# and (through XDG_CONFIG_HOME) its env file and telemetry counters.
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
