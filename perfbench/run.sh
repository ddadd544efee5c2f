#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of a migflow checkout:
#
#   sh perfbench/run.sh --workload jacobi-inproc --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, home directory, temporary files, traces),
# except the shared-memory rings of the shm fabric, which the program
# places on /dev/shm and the benchmark removes.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a migflow checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/home/go" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
PERFBENCH_SOURCE=$(cd "$root" && cat go.mod $(find internal perfbench -name '*.go' | LC_ALL=C sort) | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE
exec "$build/perfbench" "$@"
