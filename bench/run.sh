#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash bench/run.sh -seed 1 -out DIR
#   bash bench/run.sh -workload oneshot-cdn -seed 1 -seconds 15 -trace 0
#
# Everything the Go toolchain and the benchmark write stays in .bench_build
# under the root: the build cache, the binaries, and no module downloads
# (the benchmark needs none).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
