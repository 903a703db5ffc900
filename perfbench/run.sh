#!/usr/bin/env bash
# Builds the benchmark driver from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-mixed --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build writes (binary, Go
# build cache, Go telemetry and config) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
