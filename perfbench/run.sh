#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary, scratch files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
