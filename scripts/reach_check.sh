#!/usr/bin/env bash
# Reach check: every package under internal/ must be a dependency of
# some binary, meaning a command (./cmd/...), an example
# (./examples/...) or the perfbench harness (its own module). A package
# that no binary reaches is library surface that no figure, claim,
# command or service uses, so it fails the check by name: delete it or
# wire it in. Packages only tests import are allowed below, one line
# each with the reason.
#
# Usage: scripts/reach_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # sort and comm must collate alike

allowed=(
    # Ordinary least squares that the kernel and machine-model tests
    # fit scaling curves with; a test oracle, not a figure.
    piumagcn/internal/stats
)

internal=$(go list ./internal/... | sort)
reached=$(
    {
        go list -deps ./cmd/... ./examples/...
        (cd perfbench && go list -deps ./...)
        printf '%s\n' "${allowed[@]}"
    } | sort -u
)
unreached=$(comm -23 <(echo "$internal") <(echo "$reached"))

if [ -n "$unreached" ]; then
    echo "reach_check: no binary reaches these packages:" >&2
    sed 's/^/  /' <<<"$unreached" >&2
    exit 1
fi
echo "reach_check: every internal package is reached by a binary (allowed test-only: ${allowed[*]})"
