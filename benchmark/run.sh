#!/usr/bin/env bash
# The command of BENCHMARK.json. Builds the harness and hbspd from the
# checkout into benchmark/.bench_build/ — build cache, temp files and
# binaries all stay there — and runs one workload:
#
#   bash benchmark/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
#
# In a directory that holds only the benchmark (no hbsp module above it) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -o "$build/bin/benchmark" .
go -C "$root" build -o "$build/bin/hbspd" ./cmd/hbspd
exec "$build/bin/benchmark" -root "$root" -hbspd "$build/bin/hbspd" "$@"
