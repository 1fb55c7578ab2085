#!/usr/bin/env bash
# mustpass.sh — run named tests under -race and require each to report PASS.
#
# `go test -run` exits 0 when the pattern matches nothing, so a renamed or
# deleted test would silently disable a CI step that names it. This runs
# exactly the named tests and fails unless every one of them printed
# `--- PASS`. The CI "parity" steps are calls of it.
#
# Usage: scripts/mustpass.sh <package>... -- <TestName>...
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  pkgs+=("$1")
  shift
done
if [ ${#pkgs[@]} -eq 0 ] || [ $# -lt 2 ]; then
  echo "usage: $0 <package>... -- <TestName>..." >&2
  exit 2
fi
shift
tests=("$@")

pattern="^($(IFS='|'; echo "${tests[*]}"))\$"
out=$(go test -race -v -run "$pattern" -count=1 "${pkgs[@]}") || { echo "$out"; exit 1; }
echo "$out"
for t in "${tests[@]}"; do
  echo "$out" | grep -q -- "^--- PASS: $t " || { echo "mustpass: $t did not run" >&2; exit 1; }
done
