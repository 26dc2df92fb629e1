#!/usr/bin/env bash
# Builds the time-to-fit benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload vast5d-skewed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, arena
# files, span dumps) stays under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
