#!/usr/bin/env bash
# Builds cocoperf from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/cocoperf/run.sh --workload ingest-caida-64b --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the current directory, and no
# toolchain or module is fetched: the build uses the local Go toolchain
# and the repository's own sources only.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd cmd/cocoperf && go build -o "$build/cocoperf" .) >&2
exec "$build/cocoperf" "$@"
