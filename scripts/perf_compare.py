#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

Usage:
    scripts/perf_compare.py BASELINE.json CURRENT.json [--threshold 0.10]

Both files come from a gbench binary run with --benchmark_repetitions=N
(N >= 2) and --benchmark_context= carrying the host fingerprint; see the
perf stanza of scripts/check.sh.  Benchmarks are matched by name and only
their `median` aggregate is compared; each side's `iqr` aggregate (when the
binary registers one) is printed as the spread.  A benchmark whose median
real_time grew by more than the threshold (default 10%) is a regression.

Benchmarks present in only one file are listed but never flagged — adding
or retiring a benchmark is not a regression.  Two files with no benchmark in
common are refused (exit 2): a gate that compared nothing has not passed.

Refuses (exit 2) to compare files whose fingerprints differ or are missing:
a number from another CPU count, CPU model, build type, RCT_OBS setting or
compiler is not a baseline.

Exit codes: 0 = no regressions, 1 = at least one regression, 2 = bad input.
"""

import argparse
import json
import sys

# num_cpus is recorded by gbench itself; the rest arrive via --benchmark_context.
FINGERPRINT = ("num_cpus", "cpu_model", "build_type", "rct_obs", "compiler")
SCALE = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def fail(message):
    sys.stderr.write(f"perf_compare: {message}\n")
    sys.exit(2)


def load(path):
    """Returns (fingerprint, {name: {aggregate_name: real_time_seconds}})."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read '{path}': {e}")
    context = doc.get("context", {})
    missing = [k for k in FINGERPRINT if k not in context]
    if missing:
        fail(f"'{path}' has no fingerprint ({', '.join(missing)} missing from its context)")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list):
        fail(f"'{path}' has no 'benchmarks' array")
    out = {}
    for b in benches:
        if b.get("run_type") != "aggregate":
            continue
        scale = SCALE.get(b.get("time_unit", "ns"))
        if scale is None:
            fail(f"unknown time_unit '{b.get('time_unit')}' in '{path}'")
        out.setdefault(b["run_name"], {})[b["aggregate_name"]] = b["real_time"] * scale
    medians = {name: aggs for name, aggs in out.items() if "median" in aggs}
    if not medians:
        fail(f"'{path}' has no median aggregates (run with --benchmark_repetitions >= 2)")
    return {k: context[k] for k in FINGERPRINT}, medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative median real_time growth that counts as a regression "
                         "(default 0.10 = 10%%)")
    args = ap.parse_args()

    base_print, base = load(args.baseline)
    cur_print, cur = load(args.current)
    if base_print != cur_print:
        sys.stderr.write("perf_compare: refusing to compare files with different fingerprints:\n")
        for k in FINGERPRINT:
            if base_print[k] != cur_print[k]:
                sys.stderr.write(f"  {k}: {base_print[k]!r} vs {cur_print[k]!r}\n")
        return 2

    def iqr(aggs):
        return f"{aggs['iqr']:.3g}s" if "iqr" in aggs else "-"

    shared = sorted(set(base) & set(cur))
    regressions = []
    print(f"{'benchmark':<40} {'base median':>12} {'IQR':>10} {'cur median':>12} "
          f"{'IQR':>10} {'change':>8}")
    for name in shared:
        b, c = base[name]["median"], cur[name]["median"]
        change = (c - b) / b if b > 0 else float("inf")
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSION"
            regressions.append(name)
        elif change < -args.threshold:
            flag = "  improved"
        print(f"{name:<40} {b:>11.4g}s {iqr(base[name]):>10} {c:>11.4g}s "
              f"{iqr(cur[name]):>10} {change:>+8.1%}{flag}")
    for name in sorted(set(base) - set(cur)):
        print(f"{name:<40} {base[name]['median']:>11.4g}s   (removed)")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<40} {'-':>12} {'':>10} {cur[name]['median']:>11.4g}s   (new)")
    if not shared:
        fail("no benchmarks in common between the two files")

    if regressions:
        print(f"\n{len(regressions)} regression(s) over "
              f"{args.threshold:.0%}: " + ", ".join(regressions))
        return 1
    print(f"\nno regressions over {args.threshold:.0%} "
          f"({len(shared)} shared benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
