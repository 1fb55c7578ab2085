#!/usr/bin/env bash
# mustpass.sh — run named tests under -race and require each to report PASS.
#
# `go test -run` exits 0 when the pattern matches nothing, so a renamed or
# deleted test would silently disable a CI step that names it. This runs
# exactly the named tests and fails unless every one of them printed
# `--- PASS`. The CI "parity" steps are calls of it.
#
# Flags before the packages go to `go test` after the defaults, so
# `-count=5` runs every named test five times (each run must pass).
#
# Usage: scripts/mustpass.sh [<go test flag>...] <package>... -- <TestName>...
set -euo pipefail
cd "$(dirname "$0")/.."

flags=()
while [ $# -gt 0 ] && [ "${1#-}" != "$1" ] && [ "$1" != "--" ]; do
  flags+=("$1")
  shift
done
pkgs=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  pkgs+=("$1")
  shift
done
if [ ${#pkgs[@]} -eq 0 ] || [ $# -lt 2 ]; then
  echo "usage: $0 [<go test flag>...] <package>... -- <TestName>..." >&2
  exit 2
fi
shift
tests=("$@")

pattern="^($(IFS='|'; echo "${tests[*]}"))\$"
out=$(go test -race -v -run "$pattern" -count=1 ${flags[@]+"${flags[@]}"} "${pkgs[@]}") || { echo "$out"; exit 1; }
echo "$out"
for t in "${tests[@]}"; do
  echo "$out" | grep -q -- "^--- PASS: $t " || { echo "mustpass: $t did not run" >&2; exit 1; }
done
