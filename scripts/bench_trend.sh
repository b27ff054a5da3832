#!/usr/bin/env bash
# Benchmark trend tracker: run the repo's microbenchmarks and append
# one JSON record per invocation to BENCH_TREND.json (JSON lines:
# commit, date, go version, sample count, and per benchmark the median
# ns/op with its interquartile range plus the median B/op and
# allocs/op). The file is committed, so performance across PRs diffs in
# review like any other artifact.
#
# Each benchmark runs -count times (default 5). ns_op is the median of
# those samples, so records written before -count existed, which hold
# one sample's ns_op, still parse the same way; ns_iqr is the distance
# between the quartiles, the spread a claimed change must beat. The
# median is the mean of the two middle samples for an even count, and
# a quartile is the nearest-rank sample, as in perfbench/stats.go.
#
# Usage: scripts/bench_trend.sh [-count N] [packages...]
#        (default packages: the load-generator, store, gossip-codec,
#        gate-submit, serve hit/miss and lint hot paths, the
#        simulation engine and the simulated kernels, plus graph
#        generation: rmat sampling, the CSR build and ogb.Generate)
set -euo pipefail

COUNT=5
if [ "${1:-}" = "-count" ]; then
    COUNT="${2:?bench_trend: -count needs a value}"
    shift 2
fi
case "$COUNT" in
'' | *[!0-9]* | 0)
    echo "bench_trend: -count must be a positive integer, got '$COUNT'" >&2
    exit 2
    ;;
esac

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
go test -run '^$' -bench . -benchmem -benchtime 0.5s -count "$COUNT" "${PKGS[@]}" >"$RAW"

# Collect the samples of `BenchmarkName-N  iters  12.3 ns/op  4 B/op
# 5 allocs/op` lines per benchmark, then fold them into one JSON object,
# preserving benchmark order.
awk -v commit="$COMMIT" -v date="$DATE" -v gover="$GOVER" -v count="$COUNT" '
/^Benchmark/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!(name in n)) order[++names] = name
    k = ++n[name]
    nsS[name, k] = ns
    if (bytes != "") bS[name, k] = bytes
    if (allocs != "") aS[name, k] = allocs
}
# sorted copies samples name,1..m of arr into s[1..m] in ascending order.
function sorted(arr, name, m,    i, j, v) {
    for (i = 1; i <= m; i++) {
        v = arr[name, i] + 0
        for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
        s[j + 1] = v
    }
}
function median(m) {
    return m % 2 ? s[(m + 1) / 2] : (s[m / 2] + s[m / 2 + 1]) / 2
}
# rank is the nearest-rank position of quantile q among m samples.
function rank(q, m,    r) {
    r = int(q * m)
    if (r < q * m) r++
    return r < 1 ? 1 : r
}
END {
    if (names == 0) {
        print "bench_trend: no benchmark results parsed" > "/dev/stderr"
        exit 1
    }
    for (o = 1; o <= names; o++) {
        name = order[o]
        m = n[name]
        sorted(nsS, name, m)
        entry = sprintf("\"%s\":{\"ns_op\":%.10g,\"ns_iqr\":%.10g", name, median(m), s[rank(0.75, m)] - s[rank(0.25, m)])
        if ((name, 1) in bS) {
            sorted(bS, name, m)
            entry = entry sprintf(",\"b_op\":%.10g", median(m))
        }
        if ((name, 1) in aS) {
            sorted(aS, name, m)
            entry = entry sprintf(",\"allocs_op\":%.10g", median(m))
        }
        benches = benches (o == 1 ? "" : ",") entry "}"
    }
    printf "{\"commit\":\"%s\",\"date\":\"%s\",\"go\":\"%s\",\"count\":%d,\"benchmarks\":{%s}}\n",
        commit, date, gover, count, benches
}' "$RAW" >>"$OUT"

echo "appended $(tail -n1 "$OUT" | cut -c1-120)... to $OUT"
