#!/usr/bin/env bash
# Benchmark trend tracker: run the repo's microbenchmarks and append
# one JSON record per invocation to BENCH_TREND.json (JSON lines:
# commit, date, go version, ns/op + allocs/op per benchmark). The file
# is committed, so performance across PRs diffs in review like any
# other artifact.
#
# Usage: scripts/bench_trend.sh [packages...]
#        (default: the load-generator, store, gossip-codec,
#        gate-submit, serve hit/miss and lint hot paths, the
#        simulation engine and the simulated kernels, plus graph
#        generation: rmat sampling, the CSR build and ogb.Generate)
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="BENCH_TREND.json"
PKGS=("$@")
if [ ${#PKGS[@]} -eq 0 ]; then
    PKGS=(./internal/workload/ ./internal/store/ ./internal/gossip/ ./internal/gate/ ./internal/serve/ ./internal/lint/ ./internal/sim/ ./internal/piuma/kernels/ ./internal/rmat/ ./internal/graph/ ./internal/ogb/)
fi

# A record taken from an uncommitted tree is marked "-dirty".
COMMIT=$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)
GOVER=$(go env GOVERSION)

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
go test -run '^$' -bench . -benchmem -benchtime 0.5s "${PKGS[@]}" >"$RAW"

# Fold `BenchmarkName-N  iters  12.3 ns/op  4 B/op  5 allocs/op` lines
# into one JSON object, preserving benchmark order.
awk -v commit="$COMMIT" -v date="$DATE" -v gover="$GOVER" '
/^Benchmark/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    entry = "\"" name "\":{\"ns_op\":" ns
    if (bytes != "") entry = entry ",\"b_op\":" bytes
    if (allocs != "") entry = entry ",\"allocs_op\":" allocs
    entry = entry "}"
    benches = benches (benches == "" ? "" : ",") entry
    count++
}
END {
    if (count == 0) {
        print "bench_trend: no benchmark results parsed" > "/dev/stderr"
        exit 1
    }
    printf "{\"commit\":\"%s\",\"date\":\"%s\",\"go\":\"%s\",\"benchmarks\":{%s}}\n",
        commit, date, gover, benches
}' "$RAW" >>"$OUT"

echo "appended $(tail -n1 "$OUT" | cut -c1-120)... to $OUT"
