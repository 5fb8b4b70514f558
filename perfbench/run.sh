#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, binary, run outputs) stays under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
