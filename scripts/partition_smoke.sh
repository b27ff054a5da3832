#!/usr/bin/env bash
# Partition smoke test: three piumaserve replicas behind a piumagate
# running the intake ledger and anti-entropy reconciler.
# Clients submit runs and disconnect immediately (no wait=true, no
# polling), then replica b1 is kill -9'd and NEVER restarted. With no
# client left to drive idempotent resubmission, the gate alone must
# notice the permanent loss through its own health probes, re-home
# b1's orphaned runs onto their homes among the survivors, and drain
# its ledger: every ledger-accepted run reaches a terminal state exactly
# once, with zero per-replica duplicates, and at least one run was
# re-homed (else the smoke never tested re-homing).
#
# Usage: scripts/partition_smoke.sh
set -euo pipefail

A_ADDR="127.0.0.1:8104"
B_ADDR="127.0.0.1:8105"
C_ADDR="127.0.0.1:8106"
G_ADDR="127.0.0.1:8107"
GBASE="http://$G_ADDR"
TMP="$(mktemp -d)"
APID=""
BPID=""
CPID=""
GPID=""

cleanup() {
    for pid in "$APID" "$BPID" "$CPID" "$GPID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in b0 b1 b2 gate; do
        echo "--- $log log ---" >&2
        cat "$TMP/$log.log" >&2 || true
    done
    exit 1
}

SERVE="$TMP/piumaserve"
GATE="$TMP/piumagate"
go build -o "$SERVE" ./cmd/piumaserve
go build -o "$GATE" ./cmd/piumagate

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

"$SERVE" -addr "$A_ADDR" -workers 2 -queue-depth 64 -replica b0 >"$TMP/b0.log" 2>&1 &
APID=$!
"$SERVE" -addr "$B_ADDR" -workers 2 -queue-depth 64 -replica b1 >"$TMP/b1.log" 2>&1 &
BPID=$!
"$SERVE" -addr "$C_ADDR" -workers 2 -queue-depth 64 -replica b2 >"$TMP/b2.log" 2>&1 &
CPID=$!
wait_healthy "http://$A_ADDR" "$APID" "replica b0"
wait_healthy "http://$B_ADDR" "$BPID" "replica b1"
wait_healthy "http://$C_ADDR" "$CPID" "replica b2"

"$GATE" -addr "$G_ADDR" -backends "http://$A_ADDR,http://$B_ADDR,http://$C_ADDR" \
    -probe-interval 250ms \
    -data-dir "$TMP/gate-data" \
    -reconcile-interval 500ms >"$TMP/gate.log" 2>&1 &
GPID=$!
wait_healthy "$GBASE" "$GPID" "piumagate"

echo "== submit runs and disconnect (no waiting clients) =="
RUNIDS=()
for seed in 1 2 3 4 5 6 7 8 9; do
    RESP=$(curl -s -X POST "$GBASE/v1/runs" -H 'Content-Type: application/json' \
        -d "{\"experiment\":\"table1\",\"options\":{\"quick\":true,\"seed\":$seed}}")
    ID=$(echo "$RESP" | sed -n 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/p' | head -n1)
    [ -n "$ID" ] || fail "submission seed=$seed not accepted: $RESP"
    RUNIDS+=("$ID")
done
echo "accepted ${#RUNIDS[@]} runs"

# The ledger must have journaled every acceptance before the kill.
OPEN=$(curl -s "$GBASE/metrics" | sed -n 's/^piumagate_intake_open_runs \([0-9][0-9]*\).*/\1/p')
[ -n "$OPEN" ] || fail "gate metrics missing piumagate_intake_open_runs"
echo "ledger holds $OPEN open run(s)"

echo "== kill -9 replica b1 — it is never restarted =="
kill -9 "$BPID" 2>/dev/null || true
BPID=""

# No client is watching. The gate's probes must confirm the loss and the reconciler must re-home b1's runs until the ledger
# drains to zero open runs.
DRAINED=""
for _ in $(seq 1 120); do
    OPEN=$(curl -s "$GBASE/metrics" | sed -n 's/^piumagate_intake_open_runs \([0-9][0-9]*\).*/\1/p')
    if [ "${OPEN:-1}" = 0 ]; then
        DRAINED=1
        break
    fi
    sleep 0.5
done
[ -n "$DRAINED" ] || fail "intake ledger never drained (still $OPEN open run(s)) — orphans were not re-homed"
echo "ledger drained: every accepted run reached a terminal state"

# b1 must be marked down and stay down.
BACKENDS=$(curl -s "$GBASE/v1/gate/backends")
echo "$BACKENDS" | grep -A2 '"name": "b1"' | grep -q '"healthy": false' \
    || fail "b1 should be marked down: $BACKENDS"

# Exactly-once: each accepted run appears on exactly one surviving
# replica, and no survivor holds a non-terminal run.
LIST_A=$(curl -s "http://$A_ADDR/v1/runs")
LIST_C=$(curl -s "http://$C_ADDR/v1/runs")
for listing in "$LIST_A" "$LIST_C"; do
    if echo "$listing" | grep -q '"status": "queued"\|"status": "running"'; then
        fail "non-terminal run left on a survivor: $listing"
    fi
done
for id in "${RUNIDS[@]}"; do
    NA=$(echo "$LIST_A" | grep -c "\"id\": \"$id\"" || true)
    NC=$(echo "$LIST_C" | grep -c "\"id\": \"$id\"" || true)
    TOTAL=$((NA + NC))
    [ "$TOTAL" = 1 ] || fail "run $id held by $TOTAL survivor replica(s), want exactly 1 (b0=$NA b2=$NC)"
done
echo "all ${#RUNIDS[@]} runs live on exactly one survivor each — zero duplicates"

METRICS=$(curl -s "$GBASE/metrics")
REHOMED=$(echo "$METRICS" | sed -n 's/^piumagate_rehomed_runs_total{backend="[^"]*"} \([0-9][0-9]*\).*/\1/p' | awk '{s+=$1} END {print s+0}')
echo "$METRICS" | grep -q '^piumagate_reconcile_sweeps_total [1-9]' \
    || fail "gate metrics show no reconcile sweeps"
echo "$METRICS" | grep -q '^piumagate_backend_probe_failures_total{backend="b1"} [1-9]' \
    || fail "gate metrics show no failed probe of b1 — the gate never saw the loss itself"
[ "$REHOMED" -ge 1 ] || fail "no run was re-homed — b1 held no open run when it died, so re-homing went untested"

echo "PASS: replica lost forever, no client waiting — ${#RUNIDS[@]} runs terminal exactly once ($REHOMED re-homed)"
