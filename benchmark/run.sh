#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# and the run write (Go build cache, binary, node data dirs) stays inside the
# checkout. BENCHMARK.json names this script as the benchmark's command.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
# The benchmark is its own module that replaces rcuarray with the checkout
# around it; without that source there is nothing to measure, and go build
# fails here with a non-zero status.
go build -C "$here" -o "$build/rcuarray-benchmark" .
cd "$root"
exec "$build/rcuarray-benchmark" "$@"
