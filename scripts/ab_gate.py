#!/usr/bin/env python3
"""In-process A/B timing gate: two builds of bench/probe in one process.

Usage:
    scripts/ab_gate.py obs ON.so OFF.so        RCT_OBS=ON vs a real OFF build
    scripts/ab_gate.py perf BASE.so CHANGE.so  HEAD's src/ vs the working tree's

Each module is bench/probe from a Release tree configured with
-DCMAKE_POSITION_INDEPENDENT_CODE=ON, loaded RTLD_LOCAL with a private copy
of the library.  obs mode gates shared/line/16384 at 2% and checks each
build's timing flag; perf mode gates every probe workload at 5%.

Estimator, per workload: calls per sample double until a sample takes
SAMPLE_S; a round is PAIRS pairs (fewer, never under MIN_PAIRS, to stay near
ROUND_S) of one sample per module, the order alternating.  Preemption and
frequency drift only ADD time, so the pairs with the smallest sum ran on a
quiet machine: the reading is the median B/A ratio over the quietest
quarter, minus one.  Noise only inflates it, so one round under tolerance
passes; up to ROUNDS rounds run.

Exit codes: 0 = every workload under tolerance, 1 = one over it in every
round, 2 = bad input (a module fails to load or set up, is the wrong build,
both paths name one file, or the workload lists differ).
"""

import ctypes
import os
import statistics
import sys

SAMPLE_S = 0.005   # shortest timed sample
ROUND_S = 1.5      # target length of one round
PAIRS = 150        # most pairs per round
MIN_PAIRS = 40     # fewest pairs per round (the slow workloads)
MAX_CALLS = 1 << 20
ROUNDS = 3         # rounds to try before failing a workload

# mode -> (workloads, or None for all; tolerance; timing flags of A and B)
MODES = {
    "obs": (["shared/line/16384"], 0.02, (1, 0)),
    "perf": (None, 0.05, None),
}


def fail(message):
    sys.stderr.write(f"ab_gate: {message}\n")
    sys.exit(2)


def load(path):
    try:
        lib = ctypes.CDLL(os.path.abspath(path), mode=os.RTLD_LOCAL)
        lib.rct_probe_workloads.restype = ctypes.c_char_p
        lib.rct_probe_time.restype = ctypes.c_double
        lib.rct_probe_time.argtypes = [ctypes.c_int]
    except (OSError, AttributeError) as e:
        fail(f"cannot load '{path}': {e}")
    lib.path = path
    return lib


def workloads(probe):
    return probe.rct_probe_workloads().decode().split()


def sample(probe, calls):
    s = probe.rct_probe_time(calls)
    if s < 0:
        fail(f"'{probe.path}' failed a timed run")
    return s


def calibrate(a, b):
    """(calls per sample, pairs per round) for the workload set up in a and b."""
    calls = 1
    while True:
        t = max(sample(a, calls), sample(b, calls))
        if t >= SAMPLE_S or calls >= MAX_CALLS:
            break
        calls *= 2
    return calls, min(PAIRS, max(MIN_PAIRS, int(ROUND_S / (2 * t))))


def one_round(a, b, calls, pairs):
    """(B/A - 1, best A ms per call, best B ms per call) over one round."""
    timed = []
    for rep in range(pairs):
        if rep % 2 == 0:
            t_a = sample(a, calls)
            t_b = sample(b, calls)
        else:
            t_b = sample(b, calls)
            t_a = sample(a, calls)
        timed.append((t_a, t_b))
    quiet = sorted(timed, key=sum)[:pairs // 4]
    reading = statistics.median(t_b / t_a for t_a, t_b in quiet) - 1.0
    per_call_ms = 1e3 / calls
    return (reading, min(t for t, _ in timed) * per_call_ms,
            min(t for _, t in timed) * per_call_ms)


def gate_workload(mode, a, b, name, tolerance):
    """The readings of the rounds run on `name`; it passed iff the last one
    is under `tolerance`."""
    for probe in (a, b):
        if probe.rct_probe_setup(name.encode()) != 0:
            fail(f"'{probe.path}' failed to set up workload '{name}'")
    calls, pairs = calibrate(a, b)
    readings = []
    for round_no in range(1, ROUNDS + 1):
        reading, a_ms, b_ms = one_round(a, b, calls, pairs)
        readings.append(reading)
        print(f"{mode} {name} (round {round_no}): {a_ms:.3f} ms vs {b_ms:.3f} ms "
              f"-> {reading:+.2%} (tolerance {tolerance:.0%})", flush=True)
        if reading < tolerance:
            break
    return readings


def run(mode, a, b):
    """Gates every workload of `mode`; returns the exit code."""
    names, tolerance, flags = MODES[mode]
    if flags is not None:
        for probe, want in zip((a, b), flags):
            if probe.rct_probe_timing_enabled() != want:
                fail(f"'{probe.path}' is not an RCT_OBS={'ON' if want else 'OFF'} build")
    listed = workloads(a)
    if listed != workloads(b):
        fail(f"'{a.path}' and '{b.path}' list different workloads")
    names = listed if names is None else names
    for name in names:
        if name not in listed:
            fail(f"no workload '{name}' in '{a.path}'")
    failed = [name for name in names
              if gate_workload(mode, a, b, name, tolerance)[-1] >= tolerance]
    if failed:
        sys.stderr.write(f"FAIL: {mode} gate: over {tolerance:.0%} in every round: "
                         f"{' '.join(failed)}\n")
        return 1
    print(f"{mode} gate: {len(names)} workload(s) under {tolerance:.0%}")
    return 0


def main(argv):
    if len(argv) != 3 or argv[0] not in MODES:
        fail("usage: ab_gate.py {obs ON.so OFF.so | perf BASE.so CHANGE.so}")
    mode, path_a, path_b = argv
    for path in (path_a, path_b):
        if not os.path.isfile(path):
            fail(f"no module '{path}'")
    # dlopen hands back the first handle for a second path to the same file,
    # which would silently compare a build with itself.
    if os.path.samefile(path_a, path_b):
        fail(f"'{path_a}' and '{path_b}' are the same file")
    return run(mode, load(path_a), load(path_b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
