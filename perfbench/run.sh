#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload paper-workflow --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the binary, Go's build cache, scratch files and span
# dumps) goes under .bench_build, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --workdir "$build" "$@"
