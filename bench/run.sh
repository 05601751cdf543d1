#!/bin/sh
# Builds the benchmark harness from the checkout's sources and runs it from
# the checkout root, passing every argument through:
#
#   sh bench/run.sh --workload exact --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the serving workloads' temporary
# stores all stay under .bench_build/ in the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches and settings inside the checkout, and never
# reach for the network: the module has no dependencies to download.
GOCACHE="$build/gocache"
GOPATH="$build/gopath"
XDG_CONFIG_HOME="$build/config"
GOPROXY=off
GOTOOLCHAIN=local
GOFLAGS=
export GOCACHE GOPATH XDG_CONFIG_HOME GOPROXY GOTOOLCHAIN GOFLAGS
(cd "$root/bench" && go build -o "$build/harness" .)
cd "$root"
exec "$build/harness" "$@"
