#!/usr/bin/env python3
"""Record and gate the perf trajectory, BENCH_perf.json (stdlib only).

    ci/perf_trajectory.py record --label "PR <n>" --out BENCH_perf.json
    ci/perf_trajectory.py check BENCH_perf.json

The benchmark is perf/ (perf/README.md). BENCHMARK.json names its
workloads, its end-to-end metrics with their bounds, and its run
length; this script reads them from there and changes none of them.

  record  runs every workload once at seed 0, untraced, through
          `python3 perf/run.py`, and appends one entry to the
          trajectory at --out. It refuses to append unless every
          run's output check passed.
  check   compares the last entry with the one before it. sweep4's
          sim_dram_cycles_per_s may drop at most 10 %, and every
          end-to-end metric on every workload must stay within its
          BENCHMARK.json bound in its `better` direction. A first
          entry passes. Exit codes: 0 pass, 1 regression or bad input.

perf/ fixes the workloads, budgets and pool widths, so two entries
differ only in the code and the host; the verdict prints both hosts.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "stfm-perf-trajectory-v2"
SEED = 0
# The trajectory's standing throughput gate: at most a 10 % drop,
# tighter than the 25 % BENCHMARK.json allows on the same metric.
GATE_WORKLOAD = "sweep4"
GATE_METRIC = "sim_dram_cycles_per_s"
GATE_MAX_DROP = 0.10


def fail(message):
    print(f"perf_trajectory: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def load_trajectory(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(f"{path} is not a {SCHEMA} document; refusing to use it")
    return doc


def this_host():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count()}


def describe(entry):
    host = entry["host"]
    return f"{entry['label']!r} on {host['cpu']} ({host['vcpus']} vCPUs)"


def run_workload(workload, seconds):
    cmd = [sys.executable, "perf/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"`{' '.join(cmd[1:])}` exited {proc.returncode}")
    return json.loads(lines[-1])


def record(label, out):
    doc = load_trajectory(out)
    bench = load_benchmark()
    metrics = [m["name"] for m in bench["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        result = run_workload(workload, bench["run_seconds"])
        if result.get("correct") is not True or result.get("failed") != 0:
            fail(f"{workload}: output check failed (correct="
                 f"{result.get('correct')}, {result.get('failed')} of "
                 f"{result.get('attempted')} operations failed); "
                 "refusing to append")
        workloads[workload] = {m: result["metrics"][m]["value"]
                               for m in metrics}
        print(f"perf_trajectory: {workload}: " + ", ".join(
            f"{m}={v:.6g}" for m, v in workloads[workload].items()))
    doc["entries"].append({"label": label, "host": this_host(),
                           "seed": SEED, "seconds": bench["run_seconds"],
                           "workloads": workloads})
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"perf_trajectory: appended {label!r} to {out}")
    return 0


def check(path):
    entries = load_trajectory(path)["entries"]
    if not entries:
        fail(f"{path} has no entries")
    new = entries[-1]
    if len(entries) == 1:
        print(f"perf_trajectory: OK: first entry {describe(new)}; "
              "nothing to compare against")
        return 0
    old = entries[-2]
    print(f"perf_trajectory: {describe(new)}\n"
          f"         against {describe(old)}")
    bench = load_benchmark()
    regressions = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if workload == GATE_WORKLOAD and name == GATE_METRIC:
                bound = min(bound, GATE_MAX_DROP)
            try:
                before = old["workloads"][workload][name]
                after = new["workloads"][workload][name]
            except KeyError:
                regressions.append(f"{workload} {name}: missing")
                continue
            if metric["better"] == "higher":
                limit = before * (1 - bound)
                ok = after >= limit
            else:
                limit = before * (1 + bound)
                ok = after <= limit
            print(f"  {workload:<12} {name:<22} {before:>12.6g} -> "
                  f"{after:<12.6g} limit {limit:<12.6g} "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok:
                regressions.append(f"{workload} {name}: {before:.6g} -> "
                                   f"{after:.6g} (limit {limit:.6g})")
    if regressions:
        fail("; ".join(regressions))
    print("perf_trajectory: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run perf/ and append an entry")
    rec.add_argument("--label", required=True)
    rec.add_argument("--out", required=True)
    chk = commands.add_parser("check", help="gate the last entry")
    chk.add_argument("path")
    args = parser.parse_args()
    if args.command == "record":
        return record(args.label, args.out)
    return check(args.path)


if __name__ == "__main__":
    sys.exit(main())
