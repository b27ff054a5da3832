#!/usr/bin/env bash
# Chaos smoke test: two piumaserve replicas behind piumagate with a
# scheduled fault timeline on the gate's fan-out transport — a
# connection-reset burst against b0 followed by a blackhole partition
# of b1 — while the open-loop "smoke" scenario drives the cluster.
# The invariant: every run the cluster ACCEPTED reaches a terminal
# state and no run is duplicated on a replica (failover resubmission
# is dedup'd by the content-addressed run ID). Every run a replica
# lists must read back through the gate's per-run GET with a terminal
# status. Afterwards both replicas must recover: probes restore
# registry health and every circuit breaker returns to closed.
#
# Usage: scripts/chaos_smoke.sh
set -euo pipefail

A_ADDR="127.0.0.1:8097"
B_ADDR="127.0.0.1:8098"
G_ADDR="127.0.0.1:8099"
GBASE="http://$G_ADDR"
TMP="$(mktemp -d)"
REPORT="$TMP/report.json"
APID=""
BPID=""
GPID=""

cleanup() {
    for pid in "$APID" "$BPID" "$GPID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in a b gate; do
        echo "--- $log log ---" >&2
        cat "$TMP/$log.log" >&2 || true
    done
    exit 1
}

json_int() {
    sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p" | head -n1
}

SERVE="$TMP/piumaserve"
GATE="$TMP/piumagate"
LOAD="$TMP/piumaload"
go build -o "$SERVE" ./cmd/piumaserve
go build -o "$GATE" ./cmd/piumagate
go build -o "$LOAD" ./cmd/piumaload

wait_healthy() {
    local base=$1 pid=$2 what=$3
    for _ in $(seq 1 100); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || fail "$what exited during startup"
        sleep 0.2
    done
    fail "$what never became healthy on $base"
}

"$SERVE" -addr "$A_ADDR" -workers 2 -queue-depth 64 -replica b0 >"$TMP/a.log" 2>&1 &
APID=$!
"$SERVE" -addr "$B_ADDR" -workers 2 -queue-depth 64 -replica b1 >"$TMP/b.log" 2>&1 &
BPID=$!
wait_healthy "http://$A_ADDR" "$APID" "replica b0"
wait_healthy "http://$B_ADDR" "$BPID" "replica b1"

# The chaos epoch is pinned when the gate starts, so the windows are
# placed far enough out that the load run overlaps them: resets tear
# down b0 forwards at 1.0-1.8s, then b1 is partitioned at 2.0-2.6s.
CHAOS='seed=7;fault=reset,target=b0,at=1s,for=800ms,rate=0.5;fault=blackhole,target=b1,at=2s,for=600ms'
"$GATE" -addr "$G_ADDR" -backends "http://$A_ADDR,http://$B_ADDR" \
    -policy cache-affinity -probe-interval 150ms -markdown-after 2 \
    -breaker-threshold 2 \
    -chaos "$CHAOS" >"$TMP/gate.log" 2>&1 &
GPID=$!
wait_healthy "$GBASE" "$GPID" "piumagate"
grep -q "chaos schedule active" "$TMP/gate.log" || fail "gate did not arm the chaos schedule"

echo "== drive the smoke scenario through the gate under the chaos schedule =="
# Exit 2 (request errors) is tolerated: while BOTH replicas are inside
# a fault window a submission can surface a 5xx — the invariant under
# test is that accepted runs are never lost or duplicated, not that
# chaos is invisible. Exit 1 (transport/usage failure) is not.
set +e
"$LOAD" -target "$GBASE" -scenario smoke -json >"$REPORT"
RC=$?
set -e
[ "$RC" = 0 ] || [ "$RC" = 2 ] || fail "piumaload exited $RC under chaos"

REQUESTS=$(json_int requests <"$REPORT")
COMPLETED=$(json_int completed <"$REPORT")
ERRORS=$(json_int errors <"$REPORT")
BACKPRESSURE=$(json_int backpressure <"$REPORT")
[ -n "$REQUESTS" ] && [ "$REQUESTS" -ge 1 ] || fail "report issued no requests: $(cat "$REPORT")"
[ -n "$COMPLETED" ] && [ "$COMPLETED" -ge 1 ] || fail "chaos ate every request: $(cat "$REPORT")"
# wait=true responses only arrive once a run is terminal, so every
# completed request IS an accepted run that reached a terminal state;
# requests + none lost: completed + backpressure + errors covers the
# whole stream.
[ "$((COMPLETED + BACKPRESSURE + ${ERRORS:-0}))" = "$REQUESTS" ] \
    || fail "$COMPLETED completed + $BACKPRESSURE backpressured + ${ERRORS:-0} errored != $REQUESTS issued: $(cat "$REPORT")"
echo "chaos run: $COMPLETED/$REQUESTS completed, $BACKPRESSURE backpressured, ${ERRORS:-0} errored"

# Give probes time to restore both replicas after the last window.
sleep 2
curl -sf "$GBASE/healthz" >/dev/null || fail "gate unhealthy after the chaos schedule expired"

echo "== every accepted run terminal, zero duplicates per replica =="
LISTING=$(curl -s "$GBASE/v1/runs")
if echo "$LISTING" | grep -q '"status": "queued"\|"status": "running"'; then
    fail "non-terminal run left after the chaos run settled: $LISTING"
fi
ALL_IDS=""
for base in "http://$A_ADDR" "http://$B_ADDR"; do
    IDS=$(curl -s "$base/v1/runs" | sed -n 's/.*"id"[[:space:]]*:[[:space:]]*"\(r-[0-9a-f]*\)".*/\1/p')
    DUPES=$(echo "$IDS" | sort | uniq -d)
    [ -z "$DUPES" ] || fail "replica $base executed a run twice: $DUPES"
    ALL_IDS="$ALL_IDS $IDS"
done
echo "no replica holds a duplicated run"

echo "== every listed run reads back through the gate, terminal =="
READS=0
for id in $(echo $ALL_IDS | tr ' ' '\n' | sort -u); do
    CODE=$(curl -s -o "$TMP/run.json" -w '%{http_code}' "$GBASE/v1/runs/$id")
    [ "$CODE" = 200 ] || fail "GET /v1/runs/$id through the gate answered $CODE: $(cat "$TMP/run.json")"
    grep -q '"status": *"\(done\|failed\|canceled\|timeout\)"' "$TMP/run.json" \
        || fail "run $id read back non-terminal: $(cat "$TMP/run.json")"
    READS=$((READS + 1))
done
[ "$READS" -ge 1 ] || fail "no replica lists a run to read back"
echo "$READS run(s) read back terminal through the gate"

echo "== replicas and breakers recovered =="
BACKENDS=$(curl -s "$GBASE/v1/gate/backends")
echo "$BACKENDS" | grep -c '"healthy": true' | grep -q '^2$' \
    || fail "both replicas should have recovered: $BACKENDS"
if echo "$BACKENDS" | grep -q '"breaker": "open"'; then
    fail "a circuit is still open after the schedule expired: $BACKENDS"
fi

echo "== gate resilience metrics present =="
METRICS=$(curl -s "$GBASE/metrics")
for family in piumagate_breaker_state piumagate_breaker_transitions_total \
    piumagate_deadline_exhausted_total; do
    echo "$METRICS" | grep -q "$family" || fail "gate metrics missing $family"
done

echo "PASS: chaos schedule ran, every accepted run terminal, zero duplicates, cluster recovered"
