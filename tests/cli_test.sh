#!/usr/bin/env bash
# End-to-end smoke test for stmaker_cli: generate a dataset, train and
# write the model container, summarize with and without it, and run the
# corpus-level commands. Registered with ctest; $1 is the path to the
# stmaker_cli binary.
set -euo pipefail

CLI="$1"
source "$(dirname "$0")/serve_lib.sh"

echo "== gen =="
"$CLI" gen --dir "$DIR" --seed 5 --blocks 10 --trips 150 --pois 120

for f in network_nodes.csv network_edges.csv pois.csv trajectories.csv; do
  [[ -s "$DIR/$f" ]] || { echo "missing $f"; exit 1; }
done

echo "== train writes one model container =="
"$CLI" train --dir "$DIR" --model "$DIR/model.stm"
[[ "$(head -c 8 "$DIR/model.stm")" == "STMKCTR1" ]] || {
  echo "train did not write a model container"; exit 1; }

echo "== train --threads 4 writes a byte-identical container =="
"$CLI" train --dir "$DIR" --model "$DIR/model_mt.stm" --threads 4
cmp "$DIR/model.stm" "$DIR/model_mt.stm" || {
  echo "model.stm differs between 1 and 4 threads"; exit 1; }

echo "== unpack dumps the container as CSV =="
"$CLI" unpack --model "$DIR/model.stm" --out "$DIR/dump"
for f in meta transitions feature_map significance visits index ch; do
  [[ -s "$DIR/dump_${f}.csv" ]] || { echo "missing dump_${f}.csv"; exit 1; }
done

echo "== train --router dijkstra skips the routing hierarchy =="
"$CLI" train --dir "$DIR" --model "$DIR/model_plain.stm" --router dijkstra
"$CLI" unpack --model "$DIR/model_plain.stm" --out "$DIR/plain"
[[ -s "$DIR/plain_meta.csv" && ! -e "$DIR/plain_ch.csv" ]] || {
  echo "--router dijkstra still wrote a hierarchy"; exit 1; }
rc=0; "$CLI" train --dir "$DIR" --model "$DIR/x.stm" --router hc 2>/dev/null || rc=$?
[[ $rc -eq 3 ]] || { echo "--router hc: want exit 3, got $rc"; exit 1; }

echo "== summarize (trained inline) =="
OUT1="$("$CLI" summarize --dir "$DIR" --trip 3)"
echo "$OUT1"
[[ "$OUT1" == "The car started from"* ]] || { echo "bad summary"; exit 1; }

echo "== summarize (from model) =="
OUT2="$("$CLI" summarize --dir "$DIR" --trip 3 --model "$DIR/model.stm" --k 2)"
echo "$OUT2"
[[ "$OUT2" == "The car started from"* ]] || { echo "bad summary"; exit 1; }

echo "== summarize --model reads no dataset CSV =="
# The container carries the world and the serving corpus: with only the
# model file present, --trip indexes its sealed corpus and every output
# format is byte-identical to the run above whose --dir held the CSVs.
SOLO="$DIR/solo"
mkdir -p "$SOLO"
cp "$DIR/model.stm" "$SOLO/model.stm"
for fmt in "" --json --geojson; do
  WITH="$("$CLI" summarize --dir "$DIR" --trip 3 --model "$DIR/model.stm" \
    --k 2 $fmt)"
  WITHOUT="$("$CLI" summarize --trip 3 --model "$SOLO/model.stm" --k 2 $fmt)"
  [[ "$WITHOUT" == "$WITH" ]] || {
    echo "summarize --model $fmt differs without the dataset CSVs"; exit 1; }
done
SOLO_OUT="$("$CLI" summarize --trip 3 --model "$SOLO/model.stm" --k 2)"
[[ "$SOLO_OUT" == "$OUT2" ]] || {
  echo "summarize --model without CSVs differs from the first run"; exit 1; }
rc=0; "$CLI" summarize --trip 150 --model "$SOLO/model.stm" 2>/dev/null || rc=$?
[[ $rc -eq 5 ]] || {
  echo "model trip out of range: want exit 5, got $rc"; exit 1; }
rc=0; "$CLI" summarize --trip 3 2>/dev/null || rc=$?
[[ $rc -eq 2 ]] || {
  echo "summarize without --dir or --model: want exit 2, got $rc"; exit 1; }

echo "== summarize --threads matches serial =="
OUT3="$("$CLI" summarize --dir "$DIR" --trip 3 --threads 4)"
[[ "$OUT3" == "$OUT1" ]] || { echo "--threads changed the summary"; exit 1; }

echo "== summarize --json =="
JSON="$("$CLI" summarize --dir "$DIR" --trip 3 --model "$DIR/model.stm" --json)"
[[ "$JSON" == "{"* && "$JSON" == *"\"partitions\""* ]] || {
  echo "bad json"; exit 1; }

echo "== stats =="
STATS1="$("$CLI" stats --dir "$DIR" --trips 40)"
grep -q "grade_of_road" <<< "$STATS1"

echo "== stats --threads matches serial =="
STATS2="$("$CLI" stats --dir "$DIR" --trips 40 --threads 4)"
[[ "$STATS2" == "$STATS1" ]] || { echo "--threads changed stats"; exit 1; }

echo "== group =="
"$CLI" group --dir "$DIR" --from-hour 6 --to-hour 20 | grep -q "Among"

echo "== error categories map to distinct exit codes =="
# Usage errors -> 2.
rc=0; "$CLI" bogus 2>/dev/null || rc=$?
[[ $rc -eq 2 ]] || { echo "bogus command: want exit 2, got $rc"; exit 1; }

# Out-of-range trip index -> 5.
rc=0; "$CLI" summarize --dir "$DIR" --trip 99999 2>/dev/null || rc=$?
[[ $rc -eq 5 ]] || { echo "out-of-range trip: want exit 5, got $rc"; exit 1; }

# Missing dataset directory -> 8 (I/O error).
rc=0; "$CLI" summarize --dir "$DIR/nonexistent" --trip 0 2>/dev/null || rc=$?
[[ $rc -eq 8 ]] || { echo "missing dir: want exit 8, got $rc"; exit 1; }

# Malformed input data (ragged CSV row) -> 3, error on stderr not stdout.
BROKEN="$(mktemp -d)"
cp "$DIR"/network_nodes.csv "$DIR"/network_edges.csv "$DIR"/pois.csv \
   "$BROKEN/"
head -n 3 "$DIR/trajectories.csv" | cut -d, -f1-3 > "$BROKEN/trajectories.csv"
rc=0
STDOUT="$("$CLI" summarize --dir "$BROKEN" --trip 0 \
  2>"$BROKEN/stderr.txt")" || rc=$?
[[ $rc -eq 3 ]] || { echo "ragged CSV: want exit 3, got $rc"; exit 1; }
[[ -z "$STDOUT" ]] || { echo "error text leaked to stdout"; exit 1; }
grep -q "trajectories.csv" "$BROKEN/stderr.txt" || {
  echo "stderr does not name the bad file"; exit 1; }
rm -rf "$BROKEN"

# Corrupted model (a flipped byte in the required transitions section,
# SectionType 12) -> 6 (failed precondition).
flip_section_byte "$DIR/model.stm" "$DIR/bad.stm" 12
rc=0
"$CLI" summarize --dir "$DIR" --trip 3 --model "$DIR/bad.stm" 2>/dev/null \
  || rc=$?
[[ $rc -eq 6 ]] || { echo "corrupted model: want exit 6, got $rc"; exit 1; }

# A --model that is not a container (here a dataset CSV) -> 3 (invalid
# argument), naming the container magic, for summarize and serve alike —
# never a crash and never a silent fallback to training.
for cmd in summarize serve; do
  rc=0
  OUT="$("$CLI" "$cmd" --dir "$DIR" --trip 3 --model "$DIR/pois.csv" \
    < /dev/null 2> "$DIR/notstm.err")" || rc=$?
  [[ $rc -eq 3 ]] || {
    echo "$cmd --model CSV: want exit 3, got $rc"; cat "$DIR/notstm.err"; exit 1; }
  [[ -z "$OUT" ]] || { echo "$cmd --model CSV produced output"; exit 1; }
  grep -q 'bad magic (want "STMKCTR1")' "$DIR/notstm.err" || {
    echo "$cmd --model CSV: error does not name the container magic"
    cat "$DIR/notstm.err"; exit 1; }
done

echo "cli_test OK"
