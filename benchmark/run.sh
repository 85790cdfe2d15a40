#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh                  every workload, each in its own process
#   bash benchmark/run.sh -trace           the same, traced: per-layer metrics and span files
#   bash benchmark/run.sh --workload reads --seed 2 --seconds 15 --trace 0
#
# With --workload it runs that workload alone, and the last line of its
# output is the JSON result. Other arguments are passed to every run.
# Exits non-zero if the build fails or any run fails a correctness gate.
# The build cache, the binary, run state and span files stay in .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=.bench_build
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, module cache, temporary
# files, its config and telemetry) stays in the build directory.
export GOCACHE="$root/$build/gocache" GOPATH="$root/$build/gopath" TMPDIR="$root/$build/tmp" \
	XDG_CONFIG_HOME="$root/$build/config" GOTOOLCHAIN=local
(cd benchmark && go build -o "../$build/benchmark" .) >&2

for arg in "$@"; do
	if [[ $arg == --workload || $arg == -workload || $arg == --workload=* || $arg == -workload=* ]]; then
		exec "$build/benchmark" "$@"
	fi
done

trace=0
args=()
for arg in "$@"; do
	if [[ $arg == -trace || $arg == --trace ]]; then
		trace=1
	else
		args+=("$arg")
	fi
done
status=0
for workload in reads write_full write_push sweep; do
	"$build/benchmark" --workload "$workload" --trace "$trace" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
