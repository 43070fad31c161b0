#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root.  Runs every workload named in
BENCHMARK.json, and serve-capstorm, for one second, untraced and
traced, and checks that each run passes its correctness gates and
prints exactly the metrics BENCHMARK.json declares, with the declared
units.  Then checks that the benchmark fails, without printing a
result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Runnable but not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["serve-capstorm"]


def run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_run(bench, workload, trace):
    errors = []
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return ["exit code %d\n%s%s" % (done.returncode, done.stdout[-2000:],
                                        done.stderr[-2000:])]
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result["correct"] is not True:
        errors.append("correct is %r" % result["correct"])
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int):
        errors.append("failed is %r" % result["failed"])
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append("metrics differ: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s value %r" % (name, value))
        elif not trace and value <= 0:
            errors.append("%s is not positive: %r" % (name, value))
        if name in want and m.get("unit") != want[name]:
            errors.append("%s unit %r, declared %r" % (
                name, m.get("unit"), want[name]))
    return errors


def check_bare():
    """Only BENCHMARK.json and the benchmark's paths: must fail."""
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["bare directory: exit %d, stdout %r" % (
            done.returncode, done.stdout[-200:])]
    return []


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS
    failures = 0
    for name in workloads:
        for trace in (0, 1):
            errors = check_run(bench, name, trace)
            status = "ok" if not errors else "FAIL"
            print("%-16s trace=%d %s" % (name, trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    errors = check_bare()
    print("bare directory   %s" % ("ok" if not errors else "FAIL"))
    for e in errors:
        print("    " + e)
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
