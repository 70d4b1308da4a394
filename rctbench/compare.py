#!/usr/bin/env python3
"""Compare two sets of saved rctbench results.

    python3 rctbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as run.py saves them under
.bench_build/results/ (copy that directory aside between the two builds).
For every workload and metric, prints each side's median and quartile
spread (IQR / median) and the change of the new median against the base,
judged against the metric's bound in BENCHMARK.json when one is given.

Refuses (exit 2) to compare results whose host fingerprints differ: a
number from another CPU count, CPU model, build type, RCT_OBS/RCT_FAULT
setting or compiler is not a baseline.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit("compare.py: no result files in " + directory)
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    prints = {json.dumps(r.get("fingerprint"), sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("compare.py: refusing to compare results with different fingerprints:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        sys.exit(2)

    spec = {}
    bench_json = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            for m in json.load(f).get("end_to_end", []):
                spec[m["name"]] = m

    def table(runs):
        out = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
        return out

    b, n = table(base), table(new)
    print("%-22s %-28s %12s %7s %12s %7s %8s  %s" %
          ("workload", "metric", "base", "spread", "new", "spread", "change", "verdict"))
    worse_than_bound = False
    for key in sorted(set(b) & set(n)):
        workload, _, name = key
        bm, nm = statistics.median(b[key]), statistics.median(n[key])
        change = (nm - bm) / bm if bm else float("nan")
        verdict = ""
        if name in spec:
            worse = -change if spec[name]["better"] == "higher" else change
            verdict = "worse than bound" if worse > spec[name]["bound"] else "within bound"
            worse_than_bound |= worse > spec[name]["bound"]
        print("%-22s %-28s %12.6g %7.3f %12.6g %7.3f %+7.1f%%  %s" %
              (workload, name, bm, spread(b[key]), nm, spread(n[key]), 100 * change, verdict))
    sys.exit(1 if worse_than_bound else 0)


if __name__ == "__main__":
    main()
