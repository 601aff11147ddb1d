#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark once into .bench_build/
# at the root of the checkout — Go's build cache included, so nothing is written
# outside the checkout — then run it with the arguments given. Run from the root:
#
#   bash benchmark/run.sh --workload scan_filter --seed 7 --seconds 10 --trace 0
#
# In a directory without the colmr module beside benchmark/ the build fails and
# this exits non-zero without printing a result.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/colmr-benchmark" .
exec "$out/colmr-benchmark" "$@"
