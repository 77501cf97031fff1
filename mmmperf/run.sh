#!/usr/bin/env bash
# Builds the mmmperf benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash mmmperf/run.sh --workload <steady-sim|relia-adaptive|warm-regen> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout: the Go build cache, temporary files, the binary, and the
# run's caches, journals, spans and profiles.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

go -C mmmperf build -o "$out/mmmperf" .
exec "$out/mmmperf" --out "$out" "$@"
