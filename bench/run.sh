#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# build cache included) and runs it with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the go command writes stays under .bench_build: build cache,
# work directories, module cache and its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/distauction-bench" .)
cd "$root"
exec "$build/distauction-bench" "$@"
