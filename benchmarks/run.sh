#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root. Everything the build leaves behind (Go's build cache and
# the go command's telemetry counters included) stays under .bench_build/
# in the checkout, and the toolchain is pinned to the installed one so
# nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C benchmarks/e2e -o "$build/e2e" .
exec "$build/e2e" "$@"
