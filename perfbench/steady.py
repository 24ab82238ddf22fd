#!/usr/bin/env python3
"""Run each workload N times and report how well its metrics repeat.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]

Run from the repository root. Every run lasts BENCHMARK.json's run_seconds
and gets its own seed, counting up from 1000. For every metric
it prints the median, the quartiles (statistics.quantiles, n=4), the spread
(interquartile distance over the median) and the max/min ratio. An
end-to-end metric is flagged when its spread exceeds a tenth or a third of
its bound in BENCHMARK.json. With --sets 2 or more the runs are repeated in
sets, and a metric whose median worsens between the first set and a later
one by more than its bound is flagged too. Exit code 1 if anything was
flagged or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def max_min_ratio(values):
    lo = min(values)
    return max(values) / lo if lo > 0 else float("inf")


def worsening(first, later, better):
    """How much `later` is worse than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    host = next((ln[5:] for ln in lines if ln.startswith("host ")), "")
    if proc.returncode != 0:
        for ln in lines[-12:]:
            print("  | " + ln)
    return proc.returncode, result, host


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    specs = {m["name"]: m for m in bench["end_to_end"]}
    flagged = False
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                code, result, host = run_once(workload, seed, seconds)
                if code != 0 or result is None or not result["correct"]:
                    print("FAILED %s seed=%d exit=%d" % (workload, seed, code))
                    flagged = True
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("run %s set=%d seed=%d failed=%d %s host=%s" %
                      (workload, s, seed, result["failed"],
                       " ".join("%s=%.4g" % (k, m["value"])
                                for k, m in result["metrics"].items()), host), flush=True)
            sets.append(values)
        print("== %s (%d runs x %d sets, %ds each)" %
              (workload, args.runs, args.sets, seconds))
        print("%-28s %12s %12s %12s %8s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "max/min", "bound", "flags"))
        for name in sorted(sets[0]):
            spec = specs.get(name, {})
            bound = spec.get("bound")
            for s, values in enumerate(sets):
                vals = values.get(name, [])
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                sp = spread(vals)
                flags = []
                if bound is not None and sp > min(0.10, bound / 3):
                    flags.append("SPREAD")
                if bound is not None and s > 0 and name in sets[0]:
                    drift = worsening(statistics.median(sets[0][name]),
                                      statistics.median(vals), spec["better"])
                    if drift > bound:
                        flags.append("DRIFT %.3f" % drift)
                flagged = flagged or bool(flags)
                label = name if args.sets == 1 else "%s[%d]" % (name, s)
                print("%-28s %12.4f %12.4f %12.4f %8.4f %8.3f %6s  %s" %
                      (label, statistics.median(vals), q1, q3, sp, max_min_ratio(vals),
                       "-" if bound is None else bound, " ".join(flags)))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
