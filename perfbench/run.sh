#!/usr/bin/env bash
# Builds dmcd and the perfbench load generator from this checkout, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload tiny-fleet --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, temporary files and the
# daemons' state dirs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/dmcd" ./cmd/dmcd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dmcd "$out/dmcd" -work-dir "$out" "$@"
