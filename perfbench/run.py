#!/usr/bin/env python3
"""Build the loopback benchmark from source and run one workload.

    python3 perfbench/run.py --workload keepalive|churn|skew --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
`loopbench` (and the runtime it links) under .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr. The
benchmark's own output goes to stdout, and its last line is the result
JSON. The exit code is the benchmark's: non-zero on a wrong response byte,
an unbalanced ledger, or a failed build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "loopbench")


def build():
    """Configure (once) and build loopbench; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rt", "runtime.h")):
        sys.exit("run.py: runtime sources not found under %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "loopbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["keepalive", "churn", "skew"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.csv" % args.workload)]
    sys.stdout.flush()
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    main()
