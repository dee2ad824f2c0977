#!/usr/bin/env python3
"""Compare two sets of benchmark records, e.g. a parent and a child commit.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of record files written by run.py
(.bench_build/perfbench/results/*.json) or single record files. For every
workload and metric it prints the median and quartile spread of each side
and, for end-to-end metrics, whether NEW is worse than BASE by more than
the bound in BENCHMARK.json.

Refuses (exit 3) to compare records from different hosts: the host
fingerprint (usable CPUs, CPU model, CPU flags) must be identical across
every record of both sets. Exits 1 when some end-to-end metric regressed
beyond its bound, 0 otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare.py: no records in %s" % path)
    return records


def fingerprint(record):
    host = record["host"]
    return (host["nproc"], host["cpu_model"], host["cpu_flags_digest"])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {fingerprint(r) for r in base + new}
    if len(hosts) != 1:
        print("compare.py: refusing to compare records from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print("  nproc=%s cpu=%r flags=%s" % host, file=sys.stderr)
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    regressed = False
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print("\n== %s (trace %d): %d base / %d new records" % (workload, trace, len(b), len(n)))
        if not b or not n:
            continue
        print("%-28s %14s %8s %14s %8s %9s  %s" % (
            "metric", "base median", "spread", "new median", "spread", "change", "verdict"))
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / abs(bm) if bm else 0.0
            verdict = ""
            spec_entry = e2e.get(name) or per_layer.get(name)
            if spec_entry is not None:
                worse = change if spec_entry["better"] == "lower" else -change
                if name in e2e:
                    if worse > spec_entry["bound"]:
                        verdict = "REGRESSED (bound %.0f%%)" % (100 * spec_entry["bound"])
                        regressed = True
                    elif spread(bv) > spec_entry["bound"]:
                        verdict = "unresolved (base spread > bound)"
                    else:
                        verdict = "ok"
            print("%-28s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%%  %s" % (
                name, bm, 100 * spread(bv), nm, 100 * spread(nv), 100 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
