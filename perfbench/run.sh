#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload dma-sweep --seed 7 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, digests, traces, scratch data
# directories) stays under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
