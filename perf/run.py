#!/usr/bin/env python3
"""Build the STFM benchmark driver from source and run one workload.

    python3 perf/run.py --workload sweep4 --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --selftest

The build lives in .bench_build/ at the repository root: configured on
the first run, brought up to date on every later one. Build output goes
to stderr; the driver's last stdout line is the result object. A traced
run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json (Chrome trace format).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The driver bounds its own work; this only stops a wedged run.
RUN_TIMEOUT_S = 170


def build(targets):
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        build(["stfm_perf", "perf_selftest"])
        return subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"]).returncode
    if not args.workload:
        parser.error("--workload is required")

    build(["stfm_perf"])
    cmd = [str(BUILD / "stfm_perf"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace]
    if args.trace == "1":
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
