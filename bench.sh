#!/bin/sh
# bench.sh — regenerate the committed benchmark numbers. Run from the
# repository root.
#
# Writes BENCH_core.json (the compiled-operator harness on a 100k-paper
# synthetic power-law network) and BENCH_ingest.json (single-citation
# incremental push re-rank vs a warm full re-rank on the 100k network,
# with reconciliation bit-equality and staleness-bound checks), then
# runs the go-test microbenchmarks for the per-iteration kernels and
# the read path (Explain, a /v1/top page).
#
# The committed BENCH_core.json is generated at GOMAXPROCS=1 (single-core
# kernel merit, no scheduler noise). It is re-run at NumCPU as well — not
# committed, but printed — so regressions in the parallel kernel are
# visible next to the pinned numbers; see DESIGN.md §4. The serving path
# (reads under load, write-to-visible latency through a leader and a
# follower) and the Table-3 grid sweep are measured end to end by the
# benchmark under benchmark/ (bash benchmark/run.sh).
set -eu

echo "==> attrank-bench, GOMAXPROCS=1 (100k-paper synthetic network -> BENCH_core.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -out BENCH_core.json

echo "==> attrank-bench, all cores (parallel-kernel scaling check, not committed)"
go run ./cmd/attrank-bench -out /tmp/BENCH_core_ncpu.json

echo "==> attrank-bench -ingest, GOMAXPROCS=1 (incremental push vs warm full re-rank -> BENCH_ingest.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -ingest -ingest-out BENCH_ingest.json

echo "==> go test -bench (sparse + core kernels + scratch metrics + read path)"
go test -run XXX -bench 'Iteration|Rank100k|Spearman|NDCG|Explain|TopHandler' -benchtime 10x -benchmem \
	./internal/sparse/ ./internal/core/ ./internal/metrics/ ./internal/service/
