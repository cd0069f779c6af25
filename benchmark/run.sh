#!/usr/bin/env bash
# What BENCHMARK.json runs: build the benchmark from source inside the
# checkout, then run it with the driver's arguments. Everything the build
# and the run write (Go build and module caches, telemetry, the binary,
# scratch datasets) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
# Outside a checkout of the module there is nothing to build: say so before
# anything is started or written.
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod in $root: run from the root of a checkout" >&2
	exit 1
fi
# With a fresh config directory the go command starts a detached telemetry
# child that can outlive it; with telemetry off it starts none.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
	go build -o "$build/hepnos-bench" ./benchmark
exec "$build/hepnos-bench" -tmp "$build/tmp" -out "$root/benchmark/out" "$@"
