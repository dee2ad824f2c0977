#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload mixed_uniform --seed 7 --seconds 42 --trace 0

Builds the STMaker library, the shipped `stmaker_cli` server and the
`perfbench` binary from the sources of this checkout (CMake, Release, into
.bench_build/perfbench), runs the benchmark's own unit tests, then runs one
measurement. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The full record of the
run (seed, input digest, host fingerprint, knee probes) is kept under
.bench_build/perfbench/results/ for compare.py.

Exits non-zero without printing a result when the repository sources are
missing or the build fails, and non-zero after printing a result whose
"correct" is false when an answer was wrong or the generator fell behind.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mixed_uniform", "summarize_hot", "reload_under_load")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on any failure."""
    for required in ("src/CMakeLists.txt", "tools/stmaker_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            log("repository source %s is missing; nothing to benchmark" % required)
            return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    built = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_test",
         "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        log("build failed")
        return False
    tests = subprocess.run([os.path.join(BUILD, "perfbench_test"), "--gtest_brief=1"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout)
        log("the benchmark's own unit tests failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2

    workdir = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(BUILD, "tools", "stmaker_cli"),
               "--workdir", workdir]
    try:
        # The server children of perfbench die with it (PR_SET_PDEATHSIG).
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the measurement did not finish within %d s" % RUN_TIMEOUT_S)
        return 2
    finally:
        # The generated world is ~20 MB; only the record is kept.
        shutil.rmtree(os.path.join(workdir, "world"), ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log("perfbench printed no result (exit %d)" % run.returncode)
        return run.returncode or 2
    record = os.path.join(workdir, "record.json")
    if os.path.isfile(record):
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        shutil.copy(record, os.path.join(
            results, "%s-trace%d-seed%d.json" % (args.workload, args.trace, args.seed)))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
