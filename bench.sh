#!/bin/sh
# bench.sh — regenerate the committed benchmark numbers. Run from the
# repository root.
#
# Every committed number is a `go test -bench` result. The
# Benchmark*100k* benchmarks in internal/core write BENCH_core.json: the
# compiled operator on a 100k-paper synthetic DBLP-profile network
# (compile pipeline and layout, the serial reference iteration, one
# tiled iteration at parts 1 and at pool size, one four-lane pass, cold
# and warm Rank). Those in internal/ingest write BENCH_ingest.json: a
# warm full re-rank per single-citation write, a push re-rank per write,
# and the live rank-per-write Ingester with the push path off and on.
#
# Each benchmark runs -count 5 at -cpu 1 (GOMAXPROCS=1: per-core merit
# without scheduler noise). Every metric a benchmark reports through
# b.ReportMetric becomes a field keyed by its unit, reduced over the
# runs to {median, min, max, runs}. The push benchmark runs its
# correctness gates as it goes (deviation within the pusher's bound,
# replay bit-identity, reconciliation == the full-only chain and within
# 1e-6 of exact, bounded live staleness); a failed gate fails the run
# and no file is written. One run of it goes first, before the timed
# passes, so a failed gate exits early instead of after the core pass.
#
# The core benchmarks then run once at every core (printed, not
# committed) so a regression in the pool fan-out shows next to the
# pinned numbers, followed by the read-path and scratch-metric
# microbenchmarks. The serving path and the Table-3 sweep are measured
# end to end by bash benchmark/run.sh.
set -eu

count=5
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# bench OUT PKG REGEX BENCHTIME [COUNT]: run the benchmarks COUNT times
# (default $count) at -cpu 1, print their output and append it to
# $tmp/OUT.
bench() {
	n=${5:-$count}
	echo "==> go test -bench '$3' -benchtime $4 -count $n -cpu 1 $2"
	if ! go test -run '^$' -bench "$3" -benchtime "$4" -count "$n" -cpu 1 "$2" >"$tmp/run"; then
		cat "$tmp/run"
		echo "bench.sh: $3 failed" >&2
		exit 1
	fi
	cat "$tmp/run"
	cat "$tmp/run" >>"$tmp/$1"
}

# reduce OUT: the BENCH JSON of the runs in $tmp/OUT. Each result line
# is "BenchmarkName N value unit value unit ..."; units with a slash
# (ns/op, B/op, allocs/op) are the framework's own and are skipped.
reduce() {
	awk '$1 ~ /^Benchmark/ { for (i = 3; i < NF; i += 2) if ($(i + 1) !~ /\//) print $(i + 1), $i }' "$tmp/$1" |
		LC_ALL=C sort -k1,1 -k2,2n |
		awk -v when="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v cpu="$(sed -n 's/^cpu: //p' "$tmp/$1" | head -n 1)" '
			function flush(med) {
				if (n == 0)
					return
				med = n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
				printf ",\n  \"%s\": {\"median\": %s, \"min\": %s, \"max\": %s, \"runs\": %d}", name, med, v[1], v[n], n
			}
			BEGIN {
				CONVFMT = "%.10g"
				gsub(/["\\]/, "", cpu)
				printf "{\n  \"generated_at\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": 1", when, cpu
			}
			$1 != name { flush(); name = $1; n = 0 }
			{ v[++n] = $2 }
			END { flush(); print "\n}" }'
}

bench gates ./internal/ingest/ 'PushRerank100k' 200x 1
bench core ./internal/core/ '100k' 1s
bench ingest ./internal/ingest/ 'FullRerank100k' 25x
bench ingest ./internal/ingest/ 'PushRerank100k' 200x
bench ingest ./internal/ingest/ 'IngestLive100k' 40x
reduce core >BENCH_core.json
reduce ingest >BENCH_ingest.json
echo "==> wrote BENCH_core.json and BENCH_ingest.json"

echo "==> go test -bench '100k', all cores (parallel-kernel scaling check, not committed)"
go test -run '^$' -bench '100k' ./internal/core/

echo "==> go test -bench (scratch metrics + read path)"
go test -run '^$' -bench 'Spearman|NDCG|Explain|TopHandler' -benchtime 10x -benchmem \
	./internal/core/ ./internal/metrics/ ./internal/service/
