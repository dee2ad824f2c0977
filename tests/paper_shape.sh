#!/usr/bin/env bash
# Paper-shape gate: runs each paper-figure bench at its own world size and
# fails when any of them reports a violated shape check (the paper's
# qualitative claims — Fig. 6 case study, Fig. 8 day/night and rush-hour
# feature frequencies, Fig. 9 landmark long tail, Fig. 10 weight and
# partition-size trends, Fig. 11 reader study). Registered with ctest; the
# arguments are the bench binaries.
set -uo pipefail

FAILED=()
for bench in "$@"; do
  name="$(basename "$bench")"
  echo "== $name =="
  if ! "$bench"; then
    FAILED+=("$name")
  fi
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAIL: shape checks violated in: ${FAILED[*]}"
  exit 1
fi
echo "PASS: every paper shape check held"
