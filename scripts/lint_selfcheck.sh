#!/usr/bin/env bash
# Self-check for the piumalint analyzers: run each analyzer over its
# fixture package under internal/lint/testdata/src/<analyzer> and the
# fixture's subpackages, and diff the findings against the committed
# golden (expected.txt). A silently
# disabled or weakened analyzer produces an empty or shrunken diff and
# fails here — the same invariant the golden tests enforce in-process,
# but exercised through the real CLI binary and exit-code contract.
#
# Usage: scripts/lint_selfcheck.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/piumalint"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/piumalint

fail=0
for dir in internal/lint/testdata/src/*/; do
  name="$(basename "$dir")"
  golden="$dir/expected.txt"
  if [[ ! -f "$golden" ]]; then
    echo "FAIL $name: no golden at $golden" >&2
    fail=1
    continue
  fi
  # Findings are expected, so the tool exits 1; only exit 2 (load
  # error) is fatal. Positions are absolute under the fixture dir —
  # strip that prefix so output matches the committed golden.
  absdir="$(cd "$dir" && pwd)"
  set +e
  raw="$(cd "$absdir" && "$BIN" -analyzer "$name" ./...)"
  status=$?
  set -e
  got="$(printf '%s\n' "$raw" | sed "s#$absdir/##g")"
  if [[ $status -ne 0 && $status -ne 1 ]]; then
    echo "FAIL $name: piumalint exited $status" >&2
    fail=1
    continue
  fi
  if ! diff -u "$golden" <(printf '%s\n' "$got"); then
    echo "FAIL $name: findings drifted from golden" >&2
    fail=1
  else
    echo "ok   $name ($(wc -l < "$golden") findings)"
  fi
done

# The repo itself must be clean: every true positive is either fixed
# or carries a reviewed //lint:ignore.
if ! "$BIN" ./...; then
  echo "FAIL piumalint found new issues in the tree" >&2
  fail=1
else
  echo "ok   repo tree is lint-clean"
fi

exit $fail
