#!/bin/sh
# bench.sh — regenerate the committed benchmark numbers. Run from the
# repository root.
#
# Writes BENCH_core.json (the compiled-operator harness on a 100k-paper
# synthetic power-law network), BENCH_service.json (the serving path under
# closed-loop overload: sustained RPS, accepted-latency quantiles and
# shed rates at 1x/2x/4x saturation, graceful-shutdown drain),
# BENCH_cluster.json (a leader plus three WAL-shipping followers on
# loopback: read throughput per replica added, and follower
# crash-recovery bit-equality), BENCH_ingest.json (single-citation
# incremental push re-rank vs a warm full re-rank on the 100k network,
# with reconciliation bit-equality and staleness-bound checks),
# BENCH_shard.json (row-partitioned distributed ranking over loopback
# shard workers at 1/2/4 shards: per-iteration wall clock, boundary
# bytes exchanged per iteration, per-shard resident footprint, gated on
# bit-equality with the single-process kernel), and then runs the
# go-test microbenchmarks for the per-iteration kernels.
#
# The committed BENCH_core.json is generated at GOMAXPROCS=1 (single-core
# kernel merit, no scheduler noise). It is re-run at NumCPU as well — not
# committed, but printed — so regressions in the parallel kernel are
# visible next to the pinned numbers; see DESIGN.md §4. The Table-3 grid
# sweep is measured end to end by the benchmark under benchmark/
# (bash benchmark/run.sh --workload sweep).
set -eu

echo "==> attrank-bench, GOMAXPROCS=1 (100k-paper synthetic network -> BENCH_core.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -out BENCH_core.json "$@"

echo "==> attrank-bench, all cores (parallel-kernel scaling check, not committed)"
go run ./cmd/attrank-bench -out /tmp/BENCH_core_ncpu.json "$@"

echo "==> attrank-bench -serve (overload harness -> BENCH_service.json)"
go run ./cmd/attrank-bench -serve -serve-out BENCH_service.json

echo "==> attrank-bench -cluster (replicated tier -> BENCH_cluster.json)"
go run ./cmd/attrank-bench -cluster -cluster-out BENCH_cluster.json

echo "==> attrank-bench -ingest, GOMAXPROCS=1 (incremental push vs warm full re-rank -> BENCH_ingest.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -ingest -ingest-out BENCH_ingest.json

echo "==> attrank-bench -shard (sharded ranking over loopback workers -> BENCH_shard.json)"
go run ./cmd/attrank-bench -shard -shard-out BENCH_shard.json

echo "==> go test -bench (sparse + core kernels + scratch metrics + shard exchange)"
go test -run XXX -bench 'Iteration|Rank100k|Spearman|NDCG|ShardExchange' -benchtime 10x -benchmem \
	./internal/sparse/ ./internal/core/ ./internal/metrics/ ./internal/shard/
