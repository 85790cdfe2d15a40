#!/bin/sh
# verify.sh — the full gate: build everything, vet everything, run all
# tests under the race detector with a shuffled execution order. Run
# from the repository root.
#
#   ./verify.sh         full gate (gofmt + build + vet + race -shuffle=on
#                       over every package, then the attrank-bench
#                       bit-equality smokes: tiled vs serial kernels,
#                       push reconciliation, impact classes)
#   ./verify.sh quick   kernel + durability + overload gate: gofmt +
#                       build + vet, then a short-mode race pass over the
#                       ranking hot path (sparse pool/tiled kernel, core
#                       operator/parallel/RankBatch/Explain tests, scratch
#                       metrics), the ingest WAL tests, the
#                       admission-control tests, the replication
#                       follower tests and the impact-indicator suites —
#                       seconds instead of minutes, for tight iteration
#   ./verify.sh fuzz    short coverage-guided fuzz sessions for the
#                       dataio readers, HTTP query parsing, the write
#                       endpoints' bodies, the replication stream and
#                       bootstrap decoders and the WAL record decoder
#
# Every mode also vets the nested benchmark module, which imports
# the root module's internal packages: an API deletion here that breaks
# it fails the gate instead of the next benchmark run.
#
# Benchmarks are separate: bench.sh regenerates BENCH_core.json and
# BENCH_ingest.json, and bash benchmark/run.sh runs the end-to-end
# benchmark.
set -eu

echo "==> gofmt -l"
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
	echo "verify.sh: gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go vet ./... (benchmark module)"
(cd benchmark && go vet ./...)

if [ "${1:-}" = "quick" ]; then
	echo "==> go test -race -short (kernel packages)"
	go test -race -short -run 'Parallel|Operator|Pool|RankBatch|Tiled|RCM|Relabel|Window|Degree|Explain|TopPage' \
		./internal/sparse/ ./internal/core/
	echo "==> go test -race (scratch metrics bit-equality)"
	go test -race -run 'Scratch|Ordering|Ranks' ./internal/metrics/
	echo "==> go test -race -run WAL (ingest durability + replication log)"
	go test -race -run 'WAL|WireSize|ReplState' ./internal/ingest/
	echo "==> go test -race (admission control, replica serving policy, top pages, shutdown drain)"
	go test -race -run 'Admission|Backpressure|Deadline|Replica|RateLimiter|MaxRPS|Explain|TopPage|ServeListener' ./internal/service/
	echo "==> go test -race -short (replication follower)"
	go test -race -short -run 'Follower' ./internal/replication/
	echo "==> go test -race (incremental push path: kernel, overlay, metamorphic, ingest, replication)"
	go test -race -run 'Push|Pusher|Overlay|Incremental|FlushDebounceRace|EpochMarkerLegacy' \
		./internal/sparse/ ./internal/graph/ ./internal/core/ ./internal/ingest/ ./internal/replication/
	echo "==> go test -race (impact indicators: classes, PageRank bit-equality, endpoints, replication)"
	go test -race -run 'Impact|Class|Indicator|PageRank|Threshold|Impulse|NormalizeID|Golden' \
		./internal/impact/ ./internal/core/ ./internal/ingest/ ./internal/service/ ./internal/replication/
	echo "verify.sh: quick checks passed"
	exit 0
fi

if [ "${1:-}" = "fuzz" ]; then
	for target in FuzzReadTSV FuzzReadJSON FuzzReadBinary; do
		echo "==> go test -fuzz $target (dataio)"
		go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime 5s ./internal/dataio/
	done
	for target in FuzzTopQuery FuzzCompareQuery FuzzPaperID FuzzImpactID FuzzImpactBatch FuzzWriteBody; do
		echo "==> go test -fuzz $target (service)"
		go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime 5s ./internal/service/
	done
	echo "==> go test -fuzz FuzzReplFrame (replication segment stream)"
	go test -run '^FuzzReplFrame$' -fuzz '^FuzzReplFrame$' -fuzztime 5s ./internal/replication/
	echo "==> go test -fuzz FuzzReplState (replication bootstrap body)"
	go test -run '^FuzzReplState$' -fuzz '^FuzzReplState$' -fuzztime 5s ./internal/replication/
	echo "==> go test -fuzz FuzzDecodeMutation (WAL record decoder)"
	go test -run '^FuzzDecodeMutation$' -fuzz '^FuzzDecodeMutation$' -fuzztime 5s ./internal/ingest/
	echo "verify.sh: fuzz sessions passed"
	exit 0
fi

echo "==> go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "==> attrank-bench -smoke (tiled vs serial bit-equality, seeded 10k graph)"
go run ./cmd/attrank-bench -smoke

echo "==> attrank-bench -ingest smoke (push-vs-exact reconciliation bit-equality, 20k graph)"
# Exits non-zero if a reconciliation epoch is not bit-identical to the
# exact rank, if interim push scores drift past their residual bound, or
# if follower-style replay diverges.
GOMAXPROCS=1 go run ./cmd/attrank-bench -ingest -ingest-papers 20000 -ingest-writes 128 \
	-ingest-full-reps 5 -ingest-live-writes 40 -ingest-out /tmp/BENCH_ingest_smoke.json

echo "==> attrank-bench -impact smoke (served indicator classes vs in-process recompute, 2k corpus)"
# Exits non-zero if any score or C1–C5 class served by /v1/impact differs
# from an independent recompute through internal/impact.
go run ./cmd/attrank-bench -impact -impact-papers 2000

echo "verify.sh: all checks passed"
