#!/usr/bin/env bash
# Deterministic chaos sweep: drive the seeded chaos harness (tools/chaos)
# against `stmaker_cli serve` across many seeds. Each seed derives a fixed
# schedule of failpoint arming, SIGHUP floods, malformed lines, deadline
# storms, and reload requests (good, bad, and in-place) under open-loop
# load, and checks the lifecycle invariants: no crash, exactly one reply
# per accepted request, model_version never torn, rollback on injected
# corruption, SIGTERM drain exit 0. The model is the mmap-served container
# (docs/FORMAT.md) and the bad-reload target is a truncated copy of it or
# one with a damaged serving corpus, so a rejected reload must leave the
# old snapshot serving off its
# still-mapped file, and a schedule that arms the container/map failpoint
# must degrade to the heap-read fallback — never a torn snapshot.
# Registered with ctest; $1 = chaos binary, $2 = stmaker_cli binary.
set -euo pipefail

CHAOS="$1"
CLI="$2"
SEEDS="${STMAKER_CHAOS_SEEDS:-1 2 3 4 5 6 7 8}"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen + train =="
serve_world

echo "== stage corrupt models =="
# Truncation is guaranteed corruption: the header's file_bytes no longer
# matches, so MappedContainer::Open rejects the candidate outright. The
# flipped copies get past Open and fail the load on a required section's
# CRC: the serving corpus (SectionType 22 = kCorpusTrips, 23 =
# kCorpusSamples). Seeds take them in turn.
BADS=("$DIR/badmodel.stm" "$DIR/badcorpus_trips.stm" "$DIR/badcorpus_samples.stm")
head -c 3000 "$DIR/model.stm" > "${BADS[0]}"
flip_section_byte "$DIR/model.stm" "${BADS[1]}" 22
flip_section_byte "$DIR/model.stm" "${BADS[2]}" 23

FAILED=()
for seed in $SEEDS; do
  BAD="${BADS[$((seed % ${#BADS[@]}))]}"
  echo "== chaos seed $seed (bad model $(basename "$BAD")) =="
  # 40 qps stays well inside capacity even on a TSan build (the point is
  # lifecycle invariants under faults, not saturation — the SLO bench owns
  # that); the loadgen leg must see zero unanswered requests.
  if ! "$CHAOS" --cli "$CLI" --dir "$DIR" --model "$DIR/model.stm" \
       --bad_model "$BAD" --seed "$seed" --duration_s 2 --qps 40; then
    FAILED+=("$seed")
  fi
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAIL: chaos seeds ${FAILED[*]} failed."
  echo "Repro a single seed outside ctest with:"
  for seed in "${FAILED[@]}"; do
    echo "  $CHAOS --cli $CLI --dir <datadir> --model <datadir>/model.stm" \
         "--bad_model <corrupt-copy>.stm --seed $seed" \
         "(corrupt copy: $(basename "${BADS[$((seed % ${#BADS[@]}))]}"))"
  done
  echo "(regenerate <datadir> with: $CLI gen --dir <datadir> --seed 5" \
       "--blocks 10 --trips 80 --pois 100 && $CLI train --dir <datadir>" \
       "--model <datadir>/model.stm)"
  exit 1
fi

echo "PASS"
