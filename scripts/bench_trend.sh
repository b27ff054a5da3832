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
# With -paired REV, the record can carry a claim against REV. Each
# package is built twice as a test binary (go test -c): once from REV,
# checked out in a temporary git worktree, and once from the working
# tree. The two binaries then run alternately, -count pairs, one sample
# each per run, from their own package directories, REV first in odd
# pairs and the working tree first in even ones. Two records are
# appended, REV's then the working tree's, each naming the other in
# "paired_with" with the number of "pairs"; every benchmark entry adds
# "wins", the pairs in which that side read the lower ns/op (a tie
# counts for neither; a benchmark only one side has gets no "wins").
# Paired mode takes package directories, not patterns such as ./... .
#
# Usage: scripts/bench_trend.sh [-count N] [-paired REV] [packages...]
#        (default packages: the load-generator, store, gate-submit,
#        serve hit/miss and lint hot paths, the simulation engine and
#        the simulated kernels, plus graph generation: rmat sampling,
#        the CSR build and ogb.Generate)
set -euo pipefail

COUNT=5
PAIRED=""
while [ $# -gt 0 ]; do
    case "$1" in
    -count)
        COUNT="${2:?bench_trend: -count needs a value}"
        shift 2
        ;;
    -paired)
        PAIRED="${2:?bench_trend: -paired needs a revision}"
        shift 2
        ;;
    *) break ;;
    esac
done
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
    PKGS=(./internal/workload/ ./internal/store/ ./internal/gate/ ./internal/serve/ ./internal/lint/ ./internal/sim/ ./internal/piuma/kernels/ ./internal/rmat/ ./internal/graph/ ./internal/ogb/)
fi

# A record taken from an uncommitted tree is marked "-dirty".
COMMIT=$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
DATE=$(date -u +%Y-%m-%dT%H:%M:%SZ)
GOVER=$(go env GOVERSION)

# record appends the record of the samples in raw to OUT. In paired
# mode, other holds the other side's samples, in the same pair order,
# and against is its commit.
record() {
    local commit="$1" raw="$2" other="${3:-}" against="${4:-}"
    # Collect the samples of `BenchmarkName-N  iters  12.3 ns/op  4 B/op
    # 5 allocs/op` lines per benchmark, then fold them into one JSON
    # object, preserving benchmark order.
    awk -v commit="$commit" -v date="$DATE" -v gover="$GOVER" -v count="$COUNT" \
        -v other="$other" -v against="$against" '
FILENAME == other && /^Benchmark/ {
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") oS[$1, ++on[$1]] = $(i - 1)
    }
    next
}
FILENAME == other { next }
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
        if ((name, 1) in oS) {
            wins = 0
            for (k = 1; k <= m; k++) {
                if ((name, k) in oS && nsS[name, k] + 0 < oS[name, k] + 0) wins++
            }
            entry = entry sprintf(",\"wins\":%d", wins)
        }
        benches = benches (o == 1 ? "" : ",") entry "}"
    }
    pairing = other == "" ? "" : sprintf(",\"paired_with\":\"%s\",\"pairs\":%d", against, count)
    printf "{\"commit\":\"%s\",\"date\":\"%s\",\"go\":\"%s\",\"count\":%d%s,\"benchmarks\":{%s}}\n",
        commit, date, gover, count, pairing, benches
}' ${other:+"$other"} "$raw" >>"$OUT"
    echo "appended $(tail -n1 "$OUT" | cut -c1-120)... to $OUT"
}

TMP="$(mktemp -d)"
WORKTREE=""
cleanup() {
    if [ -n "$WORKTREE" ]; then
        git worktree remove --force "$WORKTREE" || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

if [ -z "$PAIRED" ]; then
    go test -run '^$' -bench . -benchmem -benchtime 0.5s -count "$COUNT" "${PKGS[@]}" >"$TMP/raw"
    record "$COMMIT" "$TMP/raw"
    exit 0
fi

BASE=$(git rev-parse --short=7 --verify --quiet "$PAIRED^{commit}") || {
    echo "bench_trend: -paired: unknown revision '$PAIRED'" >&2
    exit 2
}
WORKTREE="$TMP/base"
git worktree add --quiet --detach "$WORKTREE" "$BASE"
# Package i's binaries are $TMP/base.i and $TMP/change.i; a package
# without test files builds none and is skipped.
for i in "${!PKGS[@]}"; do
    (cd "$WORKTREE" && go test -c -o "$TMP/base.$i" "${PKGS[$i]}")
    go test -c -o "$TMP/change.$i" "${PKGS[$i]}"
done
# run SIDE DIR runs SIDE's binary of every package once from the
# package directories under DIR.
run() {
    local i
    for i in "${!PKGS[@]}"; do
        [ -x "$TMP/$1.$i" ] || continue
        (cd "$2/${PKGS[$i]}" && "$TMP/$1.$i" -test.run '^$' -test.bench . -test.benchmem \
            -test.benchtime 0.5s -test.count 1 -test.timeout 30m) >>"$TMP/$1.raw"
    done
}
: >"$TMP/base.raw"
: >"$TMP/change.raw"
for pair in $(seq 1 "$COUNT"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$WORKTREE"
        run change .
    else
        run change .
        run base "$WORKTREE"
    fi
done
record "$BASE" "$TMP/base.raw" "$TMP/change.raw" "$COMMIT"
record "$COMMIT" "$TMP/change.raw" "$TMP/base.raw" "$BASE"
