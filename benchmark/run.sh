#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload die-scan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# working directory (Go build cache included), so nothing outside the
# checkout is touched. The build fails, and so does this script, when the
# repository sources are not beside the benchmark.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/hsd-benchmark" .)
exec "$out/hsd-benchmark" "$@"
