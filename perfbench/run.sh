#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lfo-cdn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, span files and run
# records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
    XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
    GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
