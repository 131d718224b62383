#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload search-longlist --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# (Go build cache, binary, index directories, span files) stays under
# .bench_build in that checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOENV=off GOTOOLCHAIN=local GOWORK=off

# A build failure (for instance a directory without the engine's sources)
# exits non-zero here, before any result line is printed.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
