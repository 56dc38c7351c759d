#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark driver from this
# checkout and runs it from the checkout root. Everything the build and the
# run write — Go build cache, module cache, temp files, binaries, snapshot
# directories, spans — stays under .bench_build, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# Nothing is downloaded: the driver's only dependency is this repository.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
