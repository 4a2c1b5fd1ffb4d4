#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload ngst-baseline --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build, so a run writes nothing outside the checkout. The first
# run compiles the standard library into that cache and takes a few
# minutes; later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
