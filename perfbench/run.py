#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py                      # every workload, both runs

With one --workload, the binary's output is passed through unchanged: '#'
lines for people, then one JSON result line. Without --workload, each
workload runs untraced and traced in turn, and a final JSON line sums the
answer checks of all the runs.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/), so
build output, the file-backed index of sharded_disk and the span files all
stay inside the checkout. Exit status: 0 when every answer was correct, 1
when any was not, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["monitor", "trail", "sharded_disk"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures and builds incrementally. Returns the binary path."""
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def run_one(binary, workdir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, last stdout line)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--work-dir", workdir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(bdir, "work")
    os.makedirs(workdir, exist_ok=True)

    if args.workload is not None:
        trace = 0 if args.trace is None else args.trace
        code, _ = run_one(binary, workdir, args.workload, args.seed,
                          args.seconds, trace)
        return code

    traces = [0, 1] if args.trace is None else [args.trace]
    worst, attempted, failed = 0, 0, 0
    for workload in WORKLOADS:
        for trace in traces:
            code, last = run_one(binary, workdir, workload, args.seed,
                                 args.seconds, trace)
            worst = max(worst, code)
            if code in (0, 1):
                result = json.loads(last)
                attempted += result["attempted"]
                failed += result["failed"]
    print(json.dumps({"correct": worst == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
