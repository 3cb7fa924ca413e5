#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the repository
# root. Build output, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
