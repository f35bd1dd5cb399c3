#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temp files) stays
# under bench/.build, so a run touches nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/kwsbench" .
exec "$build/kwsbench" "$@"
