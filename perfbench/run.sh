#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload full-doc --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the binary, the Go build cache and the runs' scratch state.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root of a full checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
