#!/bin/sh
# verify.sh — the full gate: build everything, vet everything, run all
# tests under the race detector with a shuffled execution order. Run
# from the repository root.
#
#   ./verify.sh         full gate (gofmt + build + vet + race -shuffle=on
#                       over every package; the tests hold every
#                       bit-equality check: tiled kernel vs serial
#                       reference, push reconciliation, served impact
#                       classes)
#   ./verify.sh quick   kernel + durability + overload gate: gofmt +
#                       build + vet, then a short-mode race pass over the
#                       ranking hot path (sparse pool/tiled kernel, core
#                       operator/parallel/RankBatch/lane-step/Explain/
#                       Tracker tests, the derived layout == a scratch
#                       compile, the FromCSC and CitationMatrix wraps,
#                       the sweep's work units, scratch metrics),
#                       the compaction tests with the network's
#                       compiled-operator memo, the ingest WAL tests,
#                       its compiled-operator lifetime tests (an epoch
#                       reuses one operator, a retired epoch's operator
#                       is collected) and the push-path gates at 5k
#                       papers, the guards that hold each BENCH_*.json
#                       to the metrics its benchmarks report, the
#                       admission-control and write-body-limit tests,
#                       the static server's
#                       refresh and indicator epochs, the replication
#                       follower tests and the leader's stream and
#                       bootstrap caps, and the impact-indicator
#                       suites — seconds instead of minutes, for tight
#                       iteration
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
# BENCH_ingest.json from go test -bench runs, and bash benchmark/run.sh
# runs the end-to-end benchmark. The gates the push benchmark holds run
# here too, at 5k papers (TestIngestGates).
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
	go test -race -short -run 'Parallel|Operator|Pool|RankBatch|Tiled|Lanes|RCM|Relabel|Degree|Derive|CompileFrom|Explain|TopPage|Tracker|CitationMatrix|FromCSC|Validate|BenchCoreFields' \
		./internal/sparse/ ./internal/core/
	echo "==> go test -race (sweep work units and their bit-equality at every GOMAXPROCS)"
	go test -race -run SweepAttRank ./internal/eval/
	echo "==> go test -race (scratch metrics bit-equality)"
	go test -race -run 'Scratch|Ordering|Ranks' ./internal/metrics/
	echo "==> go test -race (ingest durability, replication log, compiled-operator lifetime, push-path gates, BENCH_ingest.json fields)"
	go test -race -run 'WAL|WireSize|ReplState|Operator|IngestGates|IngestArmWaitIsBounded|BenchIngestFields' ./internal/ingest/
	echo "==> go test -race (admission control, write body limit, replica serving policy, static refresh epochs, top pages, shutdown drain)"
	go test -race -run 'Admission|Backpressure|BodyLimit|Deadline|Replica|RateLimiter|MaxRPS|Explain|TopPage|ServeListener|Refresh|Static|EnableIndicators' ./internal/service/
	echo "==> go test -race -short (replication follower, leader caps)"
	go test -race -short -run 'Follower|LeaderCaps' ./internal/replication/
	echo "==> go test -race (incremental push path and compaction: kernel, overlay, builder splice, network memo, metamorphic, ingest, replication)"
	go test -race -run 'Push|Pusher|Overlay|Incremental|FlushDebounceRace|EpochMarkerLegacy|Builder|Compact|Compiled|Chain|Tracker|CitationMatrix|FromCSC|Validate' \
		./internal/sparse/ ./internal/graph/ ./internal/core/ ./internal/ingest/ ./internal/replication/
	echo "==> go test -race (impact indicators: classes, PageRank bit-equality, endpoints, replication)"
	go test -race -run 'Impact|Class|Indicator|Influence|PageRank|Threshold|Impulse|NormalizeID|Golden|Resolve' \
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

echo "verify.sh: all checks passed"
