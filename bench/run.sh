#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run it from the
# repository root:
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload pipeline-covid --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh --trace 1 --workload serve-ingest
#   bash bench/run.sh -compare runs/parent runs/change
#
# Everything the build and the runs leave behind (Go build cache, binaries,
# generated data, result and trace files) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command's own state (telemetry counters, GOPATH, module cache)
# stays under .bench_build too.
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -root "$root" "$@"
