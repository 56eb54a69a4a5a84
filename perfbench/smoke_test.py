#!/usr/bin/env python3
"""Smoke test of the repository benchmark: runs every workload at a small
extent (--dims 64, 1 s), untraced and traced, and checks the result line
against BENCHMARK.json — every named metric emitted with its unit, outputs
correct, end-to-end values nonzero. A traced insitu run that is correct has
also shown that roi::extract_adaptive + workflow::encode_snapshot produce
exactly the bytes of api::compress_adaptive (mrcbench checks it per run).

    python3 perfbench/smoke_test.py        # from the repository root
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--dims", "64"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            try:
                res = run(wl, trace)
                assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
                assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
                want = {m["name"]: m["unit"] for m in spec[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == want, "metric/unit mismatch: %s" % (set(got.items()) ^ set(want.items()))
                if trace == 0:
                    zero = [k for k, v in res["metrics"].items() if v["value"] == 0]
                    assert not zero, "zero end-to-end metrics: %s" % zero
                if wl == "insitu" and trace == 1:
                    assert res["metrics"]["core.encode_snapshot_s"]["value"] > 0
                print("ok   %-10s trace=%d" % (wl, trace))
            except AssertionError as e:
                failures.append("%s trace=%d: %s" % (wl, trace, e))
                print("FAIL %-10s trace=%d: %s" % (wl, trace, e))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
