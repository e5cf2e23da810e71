#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout: the Go build cache, the
# binary, and the benchmark's spans, reports and scratch data.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-runs" "$@"
