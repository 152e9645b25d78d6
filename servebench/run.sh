#!/usr/bin/env bash
# Builds whirlpoold and the serving benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload hot-items --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and the generated corpus stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$out/bin"
go build -o "$out/bin/whirlpoold" ./cmd/whirlpoold
go -C servebench build -o "$out/bin/servebench" .
exec "$out/bin/servebench" -daemon "$out/bin/whirlpoold" -work "$out/work" "$@"
