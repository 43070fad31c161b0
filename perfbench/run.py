#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
the harness (perfbench/CMakeLists.txt, which compiles the library from
../src) into .bench_build/perfbench; later calls only rebuild what
changed.  Build output goes to stderr.  The harness's report goes to
stdout; its last line is the JSON result.  With --trace 1 the spans of
the traced run are written to .bench_build/traces/.

Exit codes: 0 correct run, 1 a correctness gate failed, 2 bad
arguments or the build failed, 3 the run timed out or printed no
result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "psm_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Serialize concurrent builds in one checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", BUILD, "--target",
                      "psm_perfbench", "-j", str(os.cpu_count() or 4)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                log("build step failed: " + " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # The program reads PSM_* variables (thread width, fault injection,
    # telemetry); the workloads define their own settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSM_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 3

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (json.JSONDecodeError, IndexError):
        valid = False
    if not valid:
        sys.stderr.write(done.stdout)
        log("harness exited %d without a result line" % done.returncode)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
