#!/usr/bin/env bash
# Builds the traffic benchmark from this checkout and runs one workload.
# Run it from the checkout root:
#
#   bash trafficbench/run.sh --workload fig3-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and per-run scratch directories all
# stay under the checkout's .bench_build (or $CARGO_TARGET_DIR).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C trafficbench build -o "$build/trafficbench" .
exec "$build/trafficbench" -workdir "$build" -digests trafficbench/digests.json "$@"
