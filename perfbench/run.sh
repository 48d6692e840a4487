#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build (Go's build cache, temp files and the checkpoint
# directories of the runs).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --tmp "$build/tmp" "$@"
