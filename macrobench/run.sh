#!/usr/bin/env bash
# Builds the macrobench binary and the macroflowd daemon from the
# checkout's sources, then runs one workload. Run it from the root of
# the checkout:
#
#   bash macrobench/run.sh --workload cnv-z020-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and every scratch file the run
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/macroflowd" ./cmd/macroflowd
(cd macrobench && go build -o "$out/bin/macrobench" .)
exec "$out/bin/macrobench" -root "$root" -dir macrobench \
	-daemon "$out/bin/macroflowd" -scratch "$out" "$@"
