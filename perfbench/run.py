#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/mrcbench from source, then runs one
workload and passes its output through.

    python3 perfbench/run.py --workload insitu --seed 1 --seconds 15 --trace 0

Workloads: insitu, archive, viz-walk, viz-random (see mrcbench.cpp).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; the
last stdout line is the JSON result. Run from the repository root. The build
goes to $CARGO_TARGET_DIR (default .bench_build) under perfbench/; run records
and traced-run spans go next to it, in runs/.

Seeds: any seed works; 1 is the default and 9001 is held out, for checking
a claimed gain on inputs its change was not tuned on.

--dims N (power of two, default 128) changes the field edge; the smoke test
(perfbench/smoke_test.py) uses --dims 64.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("insitu", "archive", "viz-walk", "viz-random")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds mrcbench; its output goes to stderr so stdout
    ends with the benchmark's JSON line."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "mrcbench", "-j", "4"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "mrcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dims", type=int, default=128)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "mrc_api.h")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(target, "perfbench"))
    out_dir = os.path.join(target, "runs")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dims", str(args.dims), "--out", out_dir]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
