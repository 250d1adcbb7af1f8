#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing every
# argument through (see README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload plan-100f --seed 1 --seconds 10 --trace 0
#
# Build cache, Go configuration and the binary stay under .bench_build/, so
# nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/wsanbench" .)
exec "$build/wsanbench" "$@"
