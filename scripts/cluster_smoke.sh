#!/usr/bin/env bash
# Cluster smoke test: two piumaserve replicas behind piumagate. Drive
# the ~2s "smoke" scenario through the gate while kill -9'ing replica
# b0 mid-run, and require every accepted run to reach a terminal state
# with zero errors — mid-flight submissions must fail over to b1
# (safe: run IDs are content addresses, so resubmission is at worst a
# dedup hit, never a duplicate side effect). Then drive the closed-loop
# scenario through the surviving replica and check the gate's
# aggregated /metrics and backend introspection.
#
# Usage: scripts/cluster_smoke.sh
set -euo pipefail

A_ADDR="127.0.0.1:8094"
B_ADDR="127.0.0.1:8095"
G_ADDR="127.0.0.1:8096"
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

"$GATE" -addr "$G_ADDR" -backends "http://$A_ADDR,http://$B_ADDR" \
    -probe-interval 250ms >"$TMP/gate.log" 2>&1 &
GPID=$!
wait_healthy "$GBASE" "$GPID" "piumagate"

echo "== drive the smoke scenario through the gate, kill -9 replica b0 mid-run =="
( sleep 0.7; kill -9 "$APID" 2>/dev/null ) &
KILLER=$!
"$LOAD" -target "$GBASE" -scenario smoke -json >"$REPORT" \
    || fail "piumaload through the gate exited non-zero"
wait "$KILLER" || true
APID=""

REQUESTS=$(json_int requests <"$REPORT")
COMPLETED=$(json_int completed <"$REPORT")
ERRORS=$(json_int errors <"$REPORT")
BACKPRESSURE=$(json_int backpressure <"$REPORT")
[ -n "$REQUESTS" ] && [ "$REQUESTS" -ge 1 ] || fail "report issued no requests: $(cat "$REPORT")"
[ "${ERRORS:-1}" = 0 ] || fail "report shows $ERRORS error(s) — a mid-run backend death must fail over, not surface: $(cat "$REPORT")"
# wait=true responses only arrive once a run is terminal, so every
# non-backpressured request completing IS the every-accepted-run-
# reaches-a-terminal-state check.
[ "$((COMPLETED + BACKPRESSURE))" = "$REQUESTS" ] \
    || fail "$COMPLETED completed + $BACKPRESSURE backpressured != $REQUESTS issued: $(cat "$REPORT")"
echo "kill -9 run clean: $COMPLETED/$REQUESTS completed, $BACKPRESSURE backpressured, 0 errors"

# The gate must have noticed the corpse and stayed up on one replica.
sleep 0.6
curl -sf "$GBASE/healthz" >/dev/null || fail "gate unhealthy with one live replica"
BACKENDS=$(curl -s "$GBASE/v1/gate/backends")
echo "$BACKENDS" | grep -A2 '"name": "b0"' | grep -q '"healthy": false' \
    || fail "b0 should be marked down: $BACKENDS"
echo "$BACKENDS" | grep -A2 '"name": "b1"' | grep -q '"healthy": true' \
    || fail "b1 should still be healthy: $BACKENDS"

# No accepted run may be stuck: the surviving replica's cluster listing
# must hold only terminal runs (failover resubmissions are dedup'd by
# their content-addressed IDs, so nothing runs twice).
LISTING=$(curl -s "$GBASE/v1/runs")
if echo "$LISTING" | grep -q '"status": "queued"\|"status": "running"'; then
    fail "non-terminal run left after the load finished: $LISTING"
fi

echo "== drive the closed-loop scenario through the surviving replica =="
"$LOAD" -target "$GBASE" -scenario closed -json -fail-on-backpressure >"$REPORT" \
    || fail "closed-loop run exited non-zero"
CREQUESTS=$(json_int requests <"$REPORT")
CCOMPLETED=$(json_int completed <"$REPORT")
CERRORS=$(json_int errors <"$REPORT")
[ -n "$CREQUESTS" ] && [ "$CREQUESTS" -ge 1 ] || fail "closed report issued no requests: $(cat "$REPORT")"
[ "$CCOMPLETED" = "$CREQUESTS" ] || fail "closed run: $CCOMPLETED of $CREQUESTS completed: $(cat "$REPORT")"
[ "${CERRORS:-1}" = 0 ] || fail "closed run shows $CERRORS error(s): $(cat "$REPORT")"
echo "closed-loop run clean: $CCOMPLETED/$CREQUESTS completed"

echo "== check the aggregated gate metrics =="
METRICS=$(curl -s "$GBASE/metrics")
echo "$METRICS" | grep -q 'piumagate_routed_total{backend="b' \
    || fail "gate metrics missing per-backend routing counters"
echo "$METRICS" | grep -q 'piumagate_backend_up{backend="b1"} 1' \
    || fail "gate metrics missing scraped backend_up for b1"
echo "$METRICS" | grep -q 'piumagate_backend_healthy{backend="b0"} 0' \
    || fail "gate metrics should show b0 unhealthy"

echo "PASS: cluster survived kill -9 with every accepted run terminal ($COMPLETED open + $CCOMPLETED closed runs)"
