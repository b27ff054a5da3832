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

# Warm-cache replay: with -cache, a second run over the same content
# answers from the content-hash result cache alone — its diagnostics
# must be byte-identical to the cold run's, or the cache is lying.
cachedir="$(mktemp -d)"
trap 'rm -rf "$(dirname "$BIN")" "$cachedir"' EXIT
for dir in internal/lint/testdata/src/*/; do
  name="$(basename "$dir")"
  absdir="$(cd "$dir" && pwd)"
  set +e
  cold="$(cd "$absdir" && "$BIN" -cache "$cachedir" -analyzer "$name" ./...)"
  warm="$(cd "$absdir" && "$BIN" -cache "$cachedir" -analyzer "$name" ./...)"
  set -e
  if [[ "$cold" != "$warm" ]]; then
    echo "FAIL $name: warm cache run differs from cold run" >&2
    diff <(printf '%s\n' "$cold") <(printf '%s\n' "$warm") >&2 || true
    fail=1
  else
    echo "ok   $name warm cache is byte-identical"
  fi
done

# Stale-cache guard: the key covers the analyzer code, not just the
# analyzed sources. A second build of the same source with -trimpath
# is a different executable, so over the fixtures the cache just
# warmed it must miss and write entries of its own, not replay the
# first build's findings.
# (A -trimpath binary has no built-in GOROOT for the source importer.)
go build -trimpath -o "$BIN.trimpath" ./cmd/piumalint
goroot="$(go env GOROOT)"
before="$(ls "$cachedir" | wc -l)"
for dir in internal/lint/testdata/src/*/; do
  name="$(basename "$dir")"
  set +e
  (cd "$dir" && GOROOT="$goroot" "$BIN.trimpath" -cache "$cachedir" -analyzer "$name" ./... >/dev/null)
  status=$?
  set -e
  if [[ $status -ne 0 && $status -ne 1 ]]; then
    echo "FAIL $name: trimpath piumalint exited $status" >&2
    fail=1
  fi
done
after="$(ls "$cachedir" | wc -l)"
if (( after > before )); then
  echo "ok   a rebuilt piumalint misses the warm cache ($((after - before)) new entries)"
else
  echo "FAIL a rebuilt piumalint replayed the previous build's cache entries" >&2
  fail=1
fi

# The repo itself must be clean: every true positive is either fixed
# or carries a reviewed //lint:ignore.
if ! "$BIN" ./...; then
  echo "FAIL piumalint found new issues in the tree" >&2
  fail=1
else
  echo "ok   repo tree is lint-clean"
fi

exit $fail
