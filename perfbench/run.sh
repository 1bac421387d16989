#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload solve-batch --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady --workload serve-mixed --runs 5
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, state directories and traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
