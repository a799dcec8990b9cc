#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it
# with the arguments given. Everything the build writes (the Go build
# cache included) stays under .bench_build/ in that checkout. Outside a
# checkout of the repository there is no go.mod and no source to build,
# and the script fails without printing a result and without starting
# anything.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/server ]]; then
	echo "benchmark/run.sh: no go.mod or no layer packages here; run it from the root of a checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The go command's telemetry starts a detached child of its own on the
# first run against a fresh config directory; that child outlives the
# build. Telemetry mode "off" in the private config directory keeps the
# go command from starting it (and from writing counter files).
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
