#!/usr/bin/env python3
"""Run one rctbench workload end to end.

    python3 rctbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds the benchmark (and the
library sources it links) into .bench_build/rctbench, generates the
workload's seeded SPEF deck into a scratch directory under .bench_build/work,
runs the measurement, removes the scratch directory, and prints the
binary's output; the last line is the result object.  A copy of the result
with the host fingerprint lands in .bench_build/results/ for compare.py.

Exits non-zero, without printing a result, when the build fails, a
correctness check fails, or the run overruns its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "rctbench")
BINARY = os.path.join(BUILD_DIR, "rctbench")
WORKLOADS = ("batch_exact", "batch_moments_stamped", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to " + HERE)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "rctbench-build.log")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "rctbench", "-j4"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(step))


def run_binary(args, timeout):
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(args[:3])))
    if proc.returncode != 0:
        fail("rctbench %s exited with %d" % (args[0], proc.returncode))
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = parser.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work", "%s-%d-%d" % (opt.workload, opt.seed, os.getpid()))
    deck = os.path.join(work, "deck")
    os.makedirs(deck)
    try:
        common = ["--workload", opt.workload, "--seed", str(opt.seed), "--deck", deck]
        run_binary(["gen"] + common, RUN_TIMEOUT_S)
        out = run_binary(["run"] + common + ["--seconds", str(opt.seconds),
                                             "--trace", str(opt.trace), "--work", work],
                         RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        fail("malformed result line: " + lines[-1])
    saved = {"workload": opt.workload, "seed": opt.seed, "trace": opt.trace, "result": result}
    for line in lines[:-1]:
        for tag in ("fingerprint", "detail"):
            if line.startswith("# %s " % tag):
                saved[tag] = json.loads(line[len(tag) + 3:])
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (opt.workload, opt.seed, opt.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(saved, f, indent=1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
