#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload trace-report --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and every file a run writes go under
# .bench_build (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export PERFBENCH_DIR="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
