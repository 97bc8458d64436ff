#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Run from the repository root:
#   bash servebench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays inside the checkout: the binary and
# the Go build cache under .bench_build/, run outputs under .bench_out/.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
mkdir -p "$root/.bench_build" "$root/.bench_out"
(cd "$root/servebench" && go build -o "$root/.bench_build/servebench" .)
exec "$root/.bench_build/servebench" "$@"
