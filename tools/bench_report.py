#!/usr/bin/env python3
"""Render docs/BENCHMARKS.md from BENCH_throughput.json, or compare two runs.

The bench binary (`./build/bench/throughput`) writes BENCH_throughput.json
at the repo root; this script turns it into the checked-in markdown report.
Regenerate both after any perf-relevant change:

    ./build/bench/throughput
    python3 tools/bench_report.py

Output is deterministic for a given JSON file (no timestamps), so a
regeneration with unchanged numbers produces a byte-identical report and
an empty diff.

Regression gate
---------------

    python3 tools/bench_report.py --compare old.json new.json

matches rows between the two runs (throughput rows by (name, threads),
registry histograms by metric name), prints the p99 delta for every pair,
and exits 1 if any p99 regressed by more than 10%. It refuses (exit 3)
to compare two runs whose "machine" records differ in core count, CPU
model or ISA flags: such a delta measures the hosts. Sub-0.05 ms rows
are reported but never fail the gate: at that scale a single scheduler
blip outweighs any code change, and a gate that cries wolf gets deleted.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_INPUT = REPO_ROOT / "BENCH_throughput.json"
DEFAULT_OUTPUT = REPO_ROOT / "docs" / "BENCHMARKS.md"

# --compare fails on a >10% p99 regression...
REGRESSION_THRESHOLD = 0.10
# ...unless both sides sit below the timer-noise floor (ms).
NOISE_FLOOR_MS = 0.05



# Quoted perfbench measurements, not derived from BENCH_throughput.json:
# the full-size load cost the lifecycle rows above leave out.
PERFBENCH_LOAD_SECTION = [
    "## Reload and cold start at the bench world",
    "",
    "From the repository benchmark (`perfbench/`: 3,000 trips, 316k fixes, "
    "a ~16 MB model",
    "container) on a 4-vCPU Xeon host, not from `BENCH_throughput.json`: "
    "ten alternating",
    "pairs on `mixed_uniform` (seeds 201-210, `--seconds 42`), before and "
    "after the",
    "container sealed the serving corpus and a frozen trajectory index "
    "(format v2,",
    "DESIGN.md §15-§17). Medians:",
    "",
    "| metric | v1: corpus from CSV, index rebuilt | v2: map-and-swap |",
    "|---|---:|---:|",
    "| `reload_ms` | 137.8 | 22.4 |",
    "| `coldstart_ms` | 120.5 | 27.1 |",
    "| `rss_mb` | 47.8 | 36.9 |",
    "| `setup_s` | 1.30 | 1.25 |",
    "",
    "v2 was lower on `reload_ms` in 10 of 10 pairs (v1 "
    "interquartile range",
    "13 ms). Earlier, the streaming `CsvTableReader` had taken the same "
    "metric from 453",
    "to 218 ms (seeds 101-110, a different run of the host).",
    "",
    "Reading perfbench's `--trace 1` reload decomposition: its "
    "`reload.corpus_ms` still",
    "times perfbench's own `ReadTrajectoriesCsv` (~50 ms), a read the "
    "server no longer",
    "makes, so `reload.unattributed_ms` reads about -50 ms. The server's "
    "own split is the",
    "`model.reload.{world,corpus,model,commit,release}_ms` histograms in "
    "`stats`: on the",
    "bench-size world a reload is ~17 ms there (world ~1, corpus 5-7, "
    "model 9-11,",
    "release ~2 ms). Rerun perfbench to refresh these figures.",
    "",
]

# Quoted perfbench pairs for the sealed map matches (DESIGN.md §18).
PERFBENCH_SUMMARIZE_SECTION = [
    "## Summarize at the bench world: sealed map matches",
    "",
    "Same host and world, ten alternating pairs per workload (seeds "
    "201-210, `--seconds 42`,",
    "`--trace 0`), before and after training sealed each corpus trip's "
    "map match into",
    "the `.stm` so that `summarize` of a corpus trip stops re-running the "
    "matcher. Medians:",
    "",
    "| workload | metric | live matching | sealed matches |",
    "|---|---|---:|---:|",
    "| `summarize_hot` | `cpu_ms_per_req` | 0.328 | 0.191 |",
    "| `summarize_hot` | `knee_qps` | 7,613 | 16,200 |",
    "| `mixed_uniform` | `cpu_ms_per_req` | 0.298 | 0.230 |",
    "| `mixed_uniform` | `knee_qps` | 8,530 | 12,269 |",
    "",
    "Sealed was lower on `cpu_ms_per_req` and higher on `knee_qps` in 10 "
    "of 10 pairs on",
    "both workloads (parent interquartile range of `cpu_ms_per_req`: "
    "0.024 ms hot, 0.025",
    "mixed). `rss_mb` rose 1.5% / 0.8% (the ~0.5 MB of sealed runs, "
    "mapped), `reload_ms`",
    "4.6% / 1.1%. `coldstart_ms` read 13% / 5.5% higher, but perfbench "
    "times the fork of",
    "its own process, which grows with the requests a faster server is "
    "sent; an idle",
    "start of both servers on one model is equal (ROADMAP, bench "
    "hygiene). With",
    "`--trace 1` on `summarize_hot` (seed 31), `stage.extract_ms` is "
    "0.028 ms and",
    "`roadnet.map_match_ms` 0: no served summarize runs the matcher.",
    "",
]

def fmt(x, digits=2):
    """Format a number with fixed digits, keeping integers unadorned."""
    if isinstance(x, int):
        return str(x)
    return f"{x:.{digits}f}"


def render(records):
    throughput = [r for r in records if "items_per_sec" in r]
    histograms = [r for r in records if r.get("name") == "histogram"]
    ch = next((r for r in records if r.get("name") == "ch_routing"), None)
    idx = next((r for r in records if r.get("name") == "index_retrieval"),
               None)
    machine = next((r for r in records if r.get("name") == "machine"), None)
    cold = next((r for r in records if r.get("name") == "model_coldstart"),
                None)
    slo = [r for r in records if r.get("name") == "slo"]
    knee = next((r for r in records if r.get("name") == "slo_knee"), None)

    out = []
    out.append("# Benchmarks")
    out.append("")
    out.append("<!-- Generated by tools/bench_report.py from "
               "BENCH_throughput.json. Do not edit by hand:")
    out.append("       ./build/bench/throughput && "
               "python3 tools/bench_report.py -->")
    out.append("")
    out.append("All numbers come from `bench/throughput.cpp` over the "
               "deterministic 20-block")
    out.append("synthetic city (3000 trips, seed 20150401). The binary "
               "cross-checks every")
    out.append("parallel and accelerated configuration against the serial "
               "baseline and exits")
    out.append("nonzero on any divergence, so a table below never trades "
               "correctness for speed.")
    out.append("")

    if machine is not None:
        hc = machine.get("hardware_concurrency", 0)
        out.append("## Machine")
        out.append("")
        out.append(f"- `std::thread::hardware_concurrency()` = **{hc}**")
        if machine.get("cpu_model"):
            out.append(f"- CPU model: `{machine['cpu_model']}`")
        if machine.get("cpu_flags"):
            out.append(f"- ISA flags: `{machine['cpu_flags']}`")
        out.append("")
        if hc <= 1:
            out.append("> **Interpreting the thread sweeps below:** this "
                       "report was generated on a")
            out.append("> single-core machine. The thread pool caps its "
                       "workers at the core count")
            out.append("> (`src/common/parallel.cc`) — oversubscribing a "
                       "CPU-bound pool only adds")
            out.append("> context-switch latency, which previously showed "
                       "up as tens-of-ms p99")
            out.append("> tails — so every `threads = 2/4/8` row here "
                       "executes with one worker and")
            out.append("> measures the serial path. Regenerate this file "
                       "on a multi-core box to see")
            out.append("> the sweep spread out; output is certified "
                       "byte-identical at every width.")
            out.append("")

    out.append("## Throughput and latency")
    out.append("")
    out.append("| benchmark | threads | items/sec | p50 (ms) | p99 (ms) |")
    out.append("|---|---:|---:|---:|---:|")
    for r in throughput:
        out.append(
            f"| {r['name']} | {r['threads']} | {fmt(r['items_per_sec'])} "
            f"| {fmt(r['p50_ms'], 4)} | {fmt(r['p99_ms'], 4)} |")
    out.append("")
    if any(r["name"].startswith("MapMatch_") for r in throughput):
        out.append("`MapMatch_*` rows run the map matcher over the shared "
                   "scenario corpus")
        out.append("(`tests/scenario_dsl.h`): each row matches that "
                   "topology's corpus route at")
        out.append("three noise levels (0 m, 8 m, 30 m), so a "
                   "candidate-pruning regression on one")
        out.append("map shape surfaces as its own row instead of averaging "
                   "away city-wide.")
        out.append("")
    if any(r["name"] in ("ModelReload_container", "PostSwapFirstRequest")
           for r in throughput):
        out.append("`ModelReload_container` is the wall time of one full "
                   "zero-downtime model swap")
        out.append("(DESIGN.md §15): container map, section CRCs, corpus "
                   "copy, model restore,")
        out.append("index adoption, atomic commit — the old snapshot serves "
                   "throughout. It runs on")
        out.append("a 300-trip lifecycle world; \"Reload and cold start at "
                   "the bench world\" below")
        out.append("gives the full-size figures. `PostSwapFirstRequest` is")
        out.append("the first summarize answered by the freshly published "
                   "snapshot, with every")
        out.append("cache cold: the steady-state cost of a reload as a "
                   "request actually feels it.")
        out.append("`ModelColdStart_container` times nothing-in-memory to a "
                   "maker ready to answer:")
        out.append("the container (docs/FORMAT.md) is mmapped, its header, "
                   "section table, and")
        out.append("CRCs walked, the serving corpus copied out and the "
                   "trajectory index adopted")
        out.append("in place — no text parse anywhere; the container is all "
                   "a server's cold start reads.")
        out.append("")

    if ch is not None:
        out.append("## Contraction-hierarchy routing")
        out.append("")
        out.append("Point-to-point routing on a "
                   f"{ch['map_nodes']}-node generated map "
                   "(DESIGN.md §12): CH")
        out.append("preprocessing contracts the graph once, then answers "
                   "queries with a")
        out.append("bidirectional upward search over the hierarchy instead "
                   "of a full Dijkstra.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| map size (nodes) | {ch['map_nodes']} |")
        out.append(f"| one-time build (ms) | {fmt(ch['build_ms'], 1)} |")
        out.append("| point-query speedup vs Dijkstra | "
                   f"**{fmt(ch['speedup_vs_dijkstra'])}×** |")
        out.append("| 64×64 batch speedup vs repeated point queries | "
                   f"**{fmt(ch['batch_speedup_vs_point'])}×** |")
        out.append("")
        out.append("Every CH cost is cross-checked against plain Dijkstra "
                   "inside the bench run")
        out.append("(600 random OD pairs plus the full batch table); a "
                   "mismatch aborts the binary.")
        out.append("")

    if idx is not None:
        out.append("## Trajectory-index retrieval")
        out.append("")
        out.append("Similarity top-K and region/time-window queries "
                   "(DESIGN.md §16) served by the")
        out.append("grid-bucketed trajectory index versus the full-corpus "
                   "scan fallback, over")
        out.append("identical query sets. Both paths return identical "
                   "results (the bench aborts")
        out.append("on any divergence; `tests/index_test.cc` pins the same "
                   "equality against a")
        out.append("brute-force oracle), so the speedups trade nothing for "
                   "correctness. The")
        out.append("`SimilarTopK` and `RegionQuery` rows above are the "
                   "indexed serving paths")
        out.append("behind the `similar` and `query` verbs.")
        out.append("")
        out.append("| metric | value |")
        out.append("|---|---:|")
        out.append(f"| corpus trips | {idx['corpus_trips']} |")
        out.append(f"| posting-list entries | {idx['postings']} |")
        out.append("| SimilarTopK speedup vs scan | "
                   f"**{fmt(idx['similar_speedup_vs_scan'], 1)}×** |")
        out.append("| RegionQuery speedup vs scan | "
                   f"**{fmt(idx['region_speedup_vs_scan'], 1)}×** |")
        out.append("")

    if cold is not None:
        out.append("## Model cold start")
        out.append("")
        out.append("Wall time and first-load RSS growth from "
                   "nothing-in-memory to a serving-ready")
        out.append("maker loaded from the model container (byte layout in "
                   "docs/FORMAT.md). The")
        out.append("model load does no text parse — open, mmap, validate the "
                   "header and section")
        out.append("table, CRC the sections, copy the serving corpus out — "
                   "and the road network's")
        out.append("hot arrays and the trajectory index alias the mapping "
                   "zero-copy. The container")
        out.append("is all a server's cold start and reload read.")
        out.append("")
        out.append("| load path | p50 (ms) | first-load RSS growth (kB) |")
        out.append("|---|---:|---:|")
        out.append(f"| model container | "
                   f"{fmt(cold['container_p50_ms'], 2)} "
                   f"| {cold['container_rss_delta_kb']} |")
        out.append("")
        out.append("Read the RSS column with care: it is sampled after the "
                   "rest of the bench has")
        out.append("warmed the allocator, and it is dominated by the mapped "
                   "file's pages — which")
        out.append("are shared and evictable page cache, not private heap. "
                   "The latency column is")
        out.append("the robust figure.")
        out.append("")

    out.extend(PERFBENCH_LOAD_SECTION)
    out.extend(PERFBENCH_SUMMARIZE_SECTION)

    if slo:
        out.append("## Serving SLO: p99 vs offered load")
        out.append("")
        out.append("An in-process TCP server (`src/net/`, two event loops, "
                   "workers matched to")
        out.append("the core count) is driven by the open-loop Poisson "
                   "load generator")
        out.append("(`src/net/loadgen.h`) at a sweep of offered rates. "
                   "Latency is measured from each request's *scheduled*")
        out.append("send time, so queueing delay under overload is charged "
                   "to the server rather")
        out.append("than hidden by a stalled closed-loop client "
                   "(no coordinated omission).")
        out.append("")
        out.append("| offered qps | achieved qps | p50 (ms) | p99 (ms) "
                   "| ok | shed | unanswered |")
        out.append("|---:|---:|---:|---:|---:|---:|---:|")
        for r in slo:
            out.append(
                f"| {fmt(r['offered_qps'], 1)} "
                f"| {fmt(r['achieved_qps'], 1)} "
                f"| {fmt(r['p50_ms'], 3)} | {fmt(r['p99_ms'], 3)} "
                f"| {r['ok']} | {r['shed']} | {r['unanswered']} |")
        out.append("")
        if knee is not None:
            out.append(f"The SLO knee — the highest offered rate at which "
                       f"every request is answered,")
            out.append(f"none is shed, and p99 stays ≤ 50 ms — is "
                       f"**{fmt(knee['knee_qps'], 1)} qps**")
            out.append(f"(p99 {fmt(knee['knee_p99_ms'], 3)} ms) against a "
                       f"single-request capacity estimate of")
            out.append(f"{fmt(knee['capacity_estimate_qps'], 1)} qps. "
                       f"Rates past the knee shed load with")
            out.append("`resource_exhausted` instead of queueing without "
                       "bound; every shed request")
            out.append("still gets an answer, so `unanswered` stays zero "
                       "through overload.")
            out.append("")

    if histograms:
        out.append("## Pipeline stage latencies")
        out.append("")
        out.append("Histogram snapshots from the metrics registry "
                   "(`common/metrics.h`) after the")
        out.append("bench workload; the same names are served live by "
                   "`stmaker_cli serve` via")
        out.append('`{"stats": 1}` requests. See docs/ARCHITECTURE.md for '
                   "the walkthrough of")
        out.append("where a request spends its time.")
        out.append("")
        out.append("| metric | count | mean (ms) | p50 (ms) | p95 (ms) "
                   "| p99 (ms) |")
        out.append("|---|---:|---:|---:|---:|---:|")
        for r in sorted(histograms, key=lambda r: r["metric"]):
            out.append(
                f"| `{r['metric']}` | {r['count']} | {fmt(r['mean_ms'], 4)} "
                f"| {fmt(r['p50_ms'], 4)} | {fmt(r['p95_ms'], 4)} "
                f"| {fmt(r['p99_ms'], 4)} |")
        out.append("")

    return "\n".join(out)


def load(path):
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise SystemExit(
            f"{path}: no such file. Run ./build/bench/throughput first (it "
            "writes BENCH_throughput.json at the repo root), or pass the "
            "path to a saved baseline.")
    except OSError as err:
        raise SystemExit(f"{path}: cannot read: {err}")
    try:
        records = json.loads(text)
    except json.JSONDecodeError as err:
        raise SystemExit(
            f"{path}: not valid JSON ({err}). The file is written "
            "atomically by the bench binary; a hand-edited or truncated "
            "copy cannot be compared — regenerate it.")
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return records


def p99_rows(records):
    """Comparable (key, p99) pairs of one run, in file order.

    Throughput rows key as "name @Nt" so the same benchmark at different
    sweep widths compares independently; registry histograms key by their
    metric name. SLO sweep rows ("slo", "slo_knee") are deliberately not
    comparable: the knee depends on machine load during the run, so gating
    on it would make the regression check flaky. The "model_coldstart"
    summary record is likewise skipped here — its per-rep latencies already
    gate through the ModelColdStart_container throughput row, and
    RSS deltas are too allocator-dependent to diff across machines.
    """
    rows = {}
    for r in records:
        if "items_per_sec" in r:
            rows[f"{r['name']} @{r['threads']}t"] = r["p99_ms"]
        elif r.get("name") == "histogram":
            rows[r["metric"]] = r["p99_ms"]
    return rows


MACHINE_FIELDS = ("hardware_concurrency", "cpu_model", "cpu_flags")


def machine(records):
    """The identity fields of a run's "machine" record (None when absent)."""
    for r in records:
        if r.get("name") == "machine":
            return tuple(r.get(field) for field in MACHINE_FIELDS)
    return None


def compare(old_path, new_path):
    old_records, new_records = load(old_path), load(new_path)
    # A number from one machine is never compared with one from another:
    # core count, CPU model and ISA flags all move p99 on their own.
    old_machine, new_machine = machine(old_records), machine(new_records)
    if old_machine != new_machine:
        print("refusing to compare runs from different machines:",
              file=sys.stderr)
        for path, m in ((old_path, old_machine), (new_path, new_machine)):
            print(f"  {path}: " + (", ".join(
                f"{k}={v!r}" for k, v in zip(MACHINE_FIELDS, m))
                if m else "no machine record"), file=sys.stderr)
        return 3
    old_rows = p99_rows(old_records)
    new_rows = p99_rows(new_records)
    shared = [k for k in new_rows if k in old_rows]
    if not shared:
        raise SystemExit("no comparable rows between the two runs")

    width = max(len(k) for k in shared)
    regressions = []
    print(f"{'row':<{width}}  {'old p99':>9}  {'new p99':>9}  delta")
    for key in shared:
        old_p99, new_p99 = old_rows[key], new_rows[key]
        delta = (new_p99 - old_p99) / old_p99 if old_p99 > 0 else 0.0
        regressed = (delta > REGRESSION_THRESHOLD and
                     max(old_p99, new_p99) >= NOISE_FLOOR_MS)
        flag = "  << REGRESSION" if regressed else ""
        print(f"{key:<{width}}  {old_p99:>9.4f}  {new_p99:>9.4f}  "
              f"{delta:>+7.1%}{flag}")
        if regressed:
            regressions.append(key)
    only_old = sorted(set(old_rows) - set(new_rows))
    only_new = sorted(set(new_rows) - set(old_rows))
    if only_old:
        print(f"# rows only in {old_path}: {', '.join(only_old)}")
    if only_new:
        print(f"# rows only in {new_path}: {', '.join(only_new)}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} row(s) regressed p99 by more "
              f"than {REGRESSION_THRESHOLD:.0%}:")
        for key in regressions:
            print(f"  - {key}")
        return 1
    print(f"\nOK: no p99 regression above {REGRESSION_THRESHOLD:.0%} "
          f"across {len(shared)} rows")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Render docs/BENCHMARKS.md or compare two bench runs.")
    parser.add_argument("input", nargs="?", default=DEFAULT_INPUT,
                        help="bench JSON to render (default: repo root)")
    parser.add_argument("output", nargs="?", default=DEFAULT_OUTPUT,
                        help="markdown destination (default: docs/)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff p99 between two runs instead of "
                             "rendering; exits 1 on a >10%% regression, "
                             "3 when the runs' machine records differ")
    args = parser.parse_args(argv[1:])

    if args.compare:
        return compare(args.compare[0], args.compare[1])

    src, dst = Path(args.input), Path(args.output)
    records = load(src)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(render(records))
    print(f"wrote {dst} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
