#!/usr/bin/env bash
# Load-generation smoke test: boot piumaserve, then for the ~2s open-
# loop "smoke" scenario and the ~2s closed-loop "closed" scenario drive
# piumaload recording a trace, require a clean report (every request
# completed, zero errors, zero backpressure), then replay the recorded
# trace against the same server and require the replay to come back
# clean too.
#
# Usage: scripts/load_smoke.sh [addr]
set -euo pipefail

ADDR="${1:-127.0.0.1:8093}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
LOG="$TMP/serve.log"
REPORT="$TMP/report.json"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# json_int <field> extracts an integer field from the JSON on stdin
# (top-level scalars only; nested objects repeat fields, so take the
# first match, which is the report-level one).
json_int() {
    sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p" | head -n1
}

SERVE="$TMP/piumaserve"
LOAD="$TMP/piumaload"
go build -o "$SERVE" ./cmd/piumaserve
go build -o "$LOAD" ./cmd/piumaload

"$SERVE" -addr "$ADDR" -workers 2 >"$LOG" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy on $ADDR"

# record_and_replay <scenario> runs the scenario recording a trace,
# then replays the trace; both reports must be clean.
record_and_replay() {
    local name="$1" trace="$TMP/$1.trace"
    echo "== run the $name scenario, recording a trace =="
    "$LOAD" -target "$BASE" -scenario "$name" -record "$trace" -json \
        -fail-on-backpressure >"$REPORT" || fail "piumaload $name run exited non-zero"

    REQUESTS=$(json_int requests <"$REPORT")
    COMPLETED=$(json_int completed <"$REPORT")
    ERRORS=$(json_int errors <"$REPORT")
    [ -n "$REQUESTS" ] && [ "$REQUESTS" -ge 1 ] || fail "$name report issued no requests: $(cat "$REPORT")"
    [ "$COMPLETED" = "$REQUESTS" ] || fail "$name: only $COMPLETED of $REQUESTS requests completed: $(cat "$REPORT")"
    [ "${ERRORS:-1}" = 0 ] || fail "$name report shows $ERRORS error(s): $(cat "$REPORT")"
    echo "recorded $name run clean: $COMPLETED/$REQUESTS completed, 0 errors"

    echo "== replay the recorded $name trace =="
    "$LOAD" -target "$BASE" -replay "$trace" -json \
        -fail-on-backpressure >"$REPORT" || fail "piumaload $name replay exited non-zero"
    RCOMPLETED=$(json_int completed <"$REPORT")
    RERRORS=$(json_int errors <"$REPORT")
    [ "$RCOMPLETED" = "$REQUESTS" ] || fail "$name replay completed $RCOMPLETED of $REQUESTS: $(cat "$REPORT")"
    [ "${RERRORS:-1}" = 0 ] || fail "$name replay shows $RERRORS error(s): $(cat "$REPORT")"
    grep -q '"replayed": true' "$REPORT" || fail "$name replay report not marked replayed"
    echo "PASS: $name scenario ran and replayed clean ($REQUESTS requests)"
}

record_and_replay smoke
record_and_replay closed
