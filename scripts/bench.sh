#!/bin/sh
# Runs the engine's benchmarks and writes the machine-readable reports at
# the repo root, so the perf trajectory stays trackable across PRs:
#
#   BENCH_engine.json     hot-path micro-benchmarks (ns/op, B/op, allocs/op)
#   BENCH_streaming.json  streaming replay: per-update latency of the
#                         O(delta) append path vs a fresh engine build
#                         and explain over the same snapshot
#   BENCH_catalog.json    warm-restart path: snapshot save/restore vs the
#                         cold CSV-parse + engine rebuild, per dataset
#   BENCH_approx.json     anytime approximate path: exact vs approx explain
#                         on the ~52k-conjunction high-cardinality scenario,
#                         with the reported and measured attribution error
#   BENCH_hierarchy.json  subtree bound-pruning: exact vs pruned explain on
#                         the ~50k-leaf taxonomy scenario, plus the
#                         flat-vs-walk candidate-ranking micro-comparison
#   BENCH_bigdata.json    beyond-RAM serving: a dataset ~4.5x the engine-
#                         pool budget served cold through the HTTP stack
#                         with candidate arenas memory-mapped off the
#                         snapshot (resident-vs-mapped split, latency
#                         percentiles, peak heap)
#   BENCH_server.json     serving-layer load test: per-endpoint latency
#                         quantiles, throughput, and shed/eviction counts
#                         (only with "server" as the first argument)
#
# CI regenerates the first five (plus a reduced-scale bigdata run) in
# short mode on every PR and gates them
# against the committed baselines with cmd/benchcmp; after an accepted
# perf change, rerun this script and commit the new JSONs to re-baseline.
# scripts/lint.sh is the static-analysis counterpart: it runs the
# tsexplain-vet invariant suite that keeps these numbers honest (the
# //tsexplain:hotpath annotations pin the zero-alloc kernels measured
# here).
#
# Usage: scripts/bench.sh [extra benchjson flags for the micro run...]
#        scripts/bench.sh server [extra loadgen flags...]
#   e.g. scripts/bench.sh -benchtime 5s
#        scripts/bench.sh -bench 'BenchmarkPrecompute' -o /tmp/p.json
#        scripts/bench.sh server -clients 256 -duration 15s
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "server" ]; then
	shift
	go run ./cmd/loadgen "$@"
	exit 0
fi

go run ./cmd/benchjson "$@"
go run ./cmd/benchjson -mode streaming
go run ./cmd/benchjson -mode catalog
go run ./cmd/benchjson -mode approx
go run ./cmd/benchjson -mode hierarchy
go run ./cmd/benchjson -mode bigdata

# Self-check the absolute contracts on the freshly written baselines
# (ratio gates trivially pass against themselves; the absolute gates —
# snapshot footprint, universe-build ceiling, and the beyond-RAM serving
# invariants — must hold even on a re-baseline, so a regression cannot
# be committed as the new normal).
go run ./cmd/benchcmp -mode engine -baseline BENCH_engine.json -current BENCH_engine.json -max-universe-build-ns 152173414
go run ./cmd/benchcmp -mode catalog -baseline BENCH_catalog.json -current BENCH_catalog.json -max-snapshot-csv-ratio 0.5
go run ./cmd/benchcmp -mode bigdata -current BENCH_bigdata.json -max-p95-ms 3000 -min-budget-ratio 4
