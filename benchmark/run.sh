#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run it from
# the repository root; all build and cache output stays in .bench_build/.
#
#   bash benchmark/run.sh --workload audit-ref-2k --seed 1 --seconds 35 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# Keep the Go toolchain's caches, temp files and telemetry inside the
# checkout, and never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$out/rds-benchmark" .
exec "$out/rds-benchmark" -root "$root" "$@"
