#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh -selfcheck 10
#
# It builds the harness from source (this directory is a Go module of its
# own that imports the repository's packages through a replace directive)
# and runs it with the arguments given. Everything it writes, the Go build
# cache included, stays inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
