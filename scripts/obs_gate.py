#!/usr/bin/env python3
"""Obs overhead gate: RCT_OBS=ON build_report vs a real RCT_OBS=OFF build.

Usage:
    scripts/obs_gate.py ON_PROBE.so OFF_PROBE.so

Each argument is bench/obs_probe built in a tree configured
-DCMAKE_BUILD_TYPE=Release -DCMAKE_POSITION_INDEPENDENT_CODE=ON with
-DRCT_OBS=ON and -DRCT_OBS=OFF respectively.  Both modules are loaded
RTLD_LOCAL into this one process; each carries a private copy of the
library, so the two builds run side by side on the same machine state.

Estimator: 150 pairs of timed calls (each timing 3 build_report calls on a
2^14-node line), the order alternating inside each pair.  Preemption and
frequency drift only ever ADD time, so the pairs with the smallest combined
time ran on a quiet machine; the reading is the median ON/OFF ratio over the
quietest quarter, minus one.  Noise only inflates it, so one round under the
TOLERANCE proves the claim; up to ROUNDS rounds run.

Exit codes: 0 = overhead under tolerance, 1 = over it in every round,
2 = bad input (a probe failed to load, set up, or is the wrong build).
"""

import argparse
import ctypes
import os
import statistics
import sys

PAIRS = 150
CALLS_PER_SAMPLE = 3
TOLERANCE = 0.02  # largest ON/OFF overhead that passes
ROUNDS = 3        # rounds to try before failing


def fail(message):
    sys.stderr.write(f"obs_gate: {message}\n")
    sys.exit(2)


def load_probe(path, want_timing):
    try:
        lib = ctypes.CDLL(os.path.abspath(path), mode=os.RTLD_LOCAL)
    except OSError as e:
        fail(f"cannot load '{path}': {e}")
    lib.rct_obs_probe_timing_enabled.restype = ctypes.c_int
    lib.rct_obs_probe_setup.restype = ctypes.c_int
    lib.rct_obs_probe_time.restype = ctypes.c_double
    lib.rct_obs_probe_time.argtypes = [ctypes.c_int]
    if lib.rct_obs_probe_timing_enabled() != int(want_timing):
        fail(f"'{path}' is not an RCT_OBS={'ON' if want_timing else 'OFF'} build")
    if lib.rct_obs_probe_setup() != 0:
        fail(f"'{path}' failed to set up its workload")
    return lib


def sample(lib):
    s = lib.rct_obs_probe_time(CALLS_PER_SAMPLE)
    if s < 0:
        fail("a probe's build_report failed")
    return s


def one_round(on, off):
    """Returns (overhead, best ON ms, best OFF ms) for one round of pairs."""
    pairs = []
    for rep in range(PAIRS):
        if rep % 2 == 0:
            t_off = sample(off)
            t_on = sample(on)
        else:
            t_on = sample(on)
            t_off = sample(off)
        pairs.append((t_on, t_off))
    quiet = sorted(pairs, key=lambda p: p[0] + p[1])[:PAIRS // 4]
    overhead = statistics.median(t_on / t_off for t_on, t_off in quiet) - 1.0
    per_call_ms = 1e3 / CALLS_PER_SAMPLE
    return (overhead, min(p[0] for p in pairs) * per_call_ms,
            min(p[1] for p in pairs) * per_call_ms)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("on_probe")
    ap.add_argument("off_probe")
    args = ap.parse_args()

    on = load_probe(args.on_probe, want_timing=True)
    off = load_probe(args.off_probe, want_timing=False)
    for round_no in range(1, ROUNDS + 1):
        overhead, on_ms, off_ms = one_round(on, off)
        print(f"obs overhead gate (round {round_no}): RCT_OBS=ON {on_ms:.3f} ms vs "
              f"OFF {off_ms:.3f} ms -> {overhead:+.2%} (tolerance {TOLERANCE:.0%})")
        if overhead < TOLERANCE:
            return 0
    sys.stderr.write(f"FAIL: obs instrumentation overhead exceeds {TOLERANCE:.0%}\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
