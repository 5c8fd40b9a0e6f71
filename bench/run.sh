#!/usr/bin/env bash
# Builds hetbench from the checkout it is run in and runs it with the given
# arguments, e.g.:
#
#   bash bench/run.sh --workload run-bw --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build/ in that root, and HOME points there
# too, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go -C bench build -o "$out/hetbench" ./hetbench
exec "$out/hetbench" "$@"
