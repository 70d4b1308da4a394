#!/usr/bin/env python3
"""Unit tests for scripts/ab_gate.py's decision rule, on synthetic timings.

Run: python3 scripts/test_ab_gate.py  (stdlib only; no build needed)
"""

import contextlib
import io
import os
import random
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_gate  # noqa: E402

OBS_WORKLOAD = ab_gate.MODES["obs"][0][0]


class FakeProbe:
    """The probe's C ABI on synthetic timings: each call costs `cost`
    seconds, times 1 + burst() when a burst generator is given."""

    def __init__(self, cost, burst=None, names="a/line/1 b/line/2", timing=1, setup_rc=0):
        self.path = f"fake-{id(self)}"
        self.cost, self.burst, self.names = cost, burst, names
        self.timing, self.setup_rc = timing, setup_rc

    def rct_probe_timing_enabled(self):
        return self.timing

    def rct_probe_workloads(self):
        return self.names.encode()

    def rct_probe_setup(self, name):
        return self.setup_rc

    def rct_probe_time(self, calls):
        return calls * self.cost * (1.0 + (self.burst() if self.burst else 0.0))


def bursts(seed):
    """Bursty noise: about a third of the samples inflated 5-200%."""
    rng = random.Random(seed)
    return lambda: rng.uniform(0.05, 2.0) if rng.random() < 0.35 else rng.uniform(0, 0.01)


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class Gate(unittest.TestCase):
    def exit_code(self, fn, *args):
        with self.assertRaises(SystemExit) as cm:
            quiet(fn, *args)
        return cm.exception.code

    def test_equal_timings_pass(self):
        self.assertEqual(quiet(ab_gate.run, "perf", FakeProbe(1e-3), FakeProbe(1e-3)), 0)

    def test_ten_percent_slower_fails_every_round(self):
        a, b = FakeProbe(1e-3), FakeProbe(1.1e-3)
        readings = quiet(ab_gate.gate_workload, "perf", a, b, "a/line/1", 0.05)
        self.assertEqual(len(readings), ab_gate.ROUNDS)
        for r in readings:
            self.assertAlmostEqual(r, 0.10, places=6)
        self.assertEqual(quiet(ab_gate.run, "perf", a, b), 1)

    def test_bursty_noise_on_both_sides_passes_and_hides_no_slowdown(self):
        for seed in range(5):
            for slowdown, code in ((1.0, 0), (1.1, 1)):
                a = FakeProbe(1e-3, bursts(2 * seed))
                b = FakeProbe(slowdown * 1e-3, bursts(2 * seed + 1))
                self.assertEqual(quiet(ab_gate.run, "perf", a, b), code, f"seed {seed}")

    def test_bad_probes_exit_2(self):
        ok = FakeProbe(1e-3)
        for bad in (FakeProbe(1e-3, names="a/line/1"),  # workload-list mismatch
                    FakeProbe(1e-3, setup_rc=1), FakeProbe(-1.0)):
            self.assertEqual(self.exit_code(ab_gate.run, "perf", ok, bad), 2)

    def test_obs_mode_rejects_a_misflagged_build(self):
        on = FakeProbe(1e-3, names=OBS_WORKLOAD, timing=1)
        off = FakeProbe(1e-3, names=OBS_WORKLOAD, timing=0)
        self.assertEqual(quiet(ab_gate.run, "obs", on, off), 0)
        for a, b in ((on, on), (off, off), (off, on)):
            self.assertEqual(self.exit_code(ab_gate.run, "obs", a, b), 2)

    def test_bad_paths_exit_2(self):
        with tempfile.TemporaryDirectory() as d:
            a, b, link = (os.path.join(d, n) for n in ("a.so", "b.so", "link.so"))
            for path in (a, b):
                with open(path, "wb") as f:
                    f.write(b"not an ELF module")
            os.symlink(a, link)
            # Two paths to one file: dlopen would hand back one handle.
            for argv in (["perf", a, a], ["perf", a, link], ["perf", a, b],
                         ["perf", a, os.path.join(d, "none.so")], ["fast", a, b]):
                self.assertEqual(self.exit_code(ab_gate.main, argv), 2, argv)


if __name__ == "__main__":
    unittest.main()
