"""Tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Kept out of the repository's pytest run on purpose: the file name does not
match pytest's test_*.py pattern.
"""

from __future__ import annotations

import signal
import statistics
import tempfile
import time
import unittest
from pathlib import Path

import calibrate
import checks
import layertrace
import run
import workloads
from run import Pass, check_pass

PACKAGE = run.load_program()
CLI = PACKAGE.cli


def _run(argv) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        error = run.run_command(CLI, argv, path)
        if error is not None:
            raise AssertionError(f"{argv}: {error}")
        return path.read_text()


def _replace_cell(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[2 + row].rstrip("\n").split(",")
    cells[column] = value
    lines[2 + row] = ",".join(cells) + "\n"
    return "".join(lines)


EMISSION = workloads.Command(
    "small", "emission",
    ("emission", "--k-ratio", "0.01", "--g-ratio", "2", "--start", "62800",
     "--end", "62801", "--steps", "40"),
    dict(k_ratio=0.01, gamma=2.0, n1=0, n2=0, start=62800.0, end=62801.0, steps=40,
         param="kappa_l"),
    points=40,
)
STEADY = workloads.Command(
    "small", "steady",
    ("steady", "--r-over-c", "5", "--grid", "32x32", "--method", "direct"),
    dict(k_ratio=0.01, gamma=2.0, r_over_c=5.0, n1_max=32, n2_max=32, method="direct",
         twolevel=False),
    states=32 * 32,
)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 12345):
                self.assertEqual(workloads.generate(name, seed),
                                 workloads.generate(name, seed))

    def test_preset_seed_runs_the_presets(self):
        work = workloads.generate("emission", workloads.PRESET_SEED)
        self.assertEqual([c.argv for c in work.commands],
                         [("preset", "fig3a"), ("preset", "fig3b")])
        work = workloads.generate("steady_rk4", workloads.PRESET_SEED)
        self.assertEqual(work.commands[0].argv[:2], ("preset", "fig4a"))

    def test_other_seeds_draw_new_inputs_of_equal_size(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 1), workloads.generate(name, 2)
            self.assertNotEqual(a.inputs, b.inputs)
            base = workloads.generate(name, workloads.PRESET_SEED)
            for work in (a, b):
                self.assertEqual(sum(c.points + c.states for c in work.commands),
                                 sum(c.points + c.states for c in base.commands))


class CorruptionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.emission = _run(EMISSION.argv)
        cls.steady = _run(STEADY.argv)

    def test_clean_outputs_pass(self):
        self.assertEqual(checks.check_output("emission", self.emission, EMISSION.expect), [])
        self.assertEqual(checks.check_output("steady", self.steady, STEADY.expect), [])

    def test_corrupted_emission_fails(self):
        bad = _replace_cell(self.emission, 3, 1, "0.5")  # breaks unitarity
        self.assertTrue(checks.check_output("emission", bad, EMISSION.expect))
        bad = _replace_cell(self.emission, 0, 4, "-0.0001")
        self.assertTrue(checks.check_output("emission", bad, EMISSION.expect))
        self.assertTrue(checks.check_output("emission", self.emission[:-40], EMISSION.expect))

    def test_corrupted_steady_fails(self):
        # moving mass between rows keeps the sum but not the stated moments
        lines = self.steady.splitlines()
        p0, p1 = (float(x.split(",")[1]) for x in lines[2:4])
        bad = _replace_cell(_replace_cell(self.steady, 0, 1, repr(p0 - 1e-3)), 1, 1,
                            repr(p1 + 1e-3))
        self.assertTrue(checks.check_output("steady", bad, STEADY.expect))
        bad = _replace_cell(self.steady, 5, 2, "-1e-3")
        self.assertTrue(checks.check_output("steady", bad, STEADY.expect))
        self.assertTrue(checks.check_output("steady", "garbage", STEADY.expect))

    def test_corrupted_output_counts_as_failed(self):
        work = workloads.Workload({}, (STEADY,))
        state = {"first": {}, "bad": set(), "identical": {}}
        errors = {}
        good = Pass(False, 1.0, 1.0, {"small": self.steady}, {})
        self.assertEqual(check_pass(work, good, state, None, None, errors), set())
        self.assertEqual(errors, {})
        changed = Pass(True, 1.0, 1.0, {"small": _replace_cell(self.steady, 5, 2, "0.0")}, {})
        self.assertEqual(check_pass(work, changed, state, None, None, errors), {"small"})
        missing = Pass(False, 1.0, 1.0, {}, {})
        self.assertEqual(check_pass(work, missing, state, None, None, errors), {"small"})

    def test_reference_tolerance_and_byte_identity(self):
        entry = checks.reference_entry(self.steady, every=4)
        self.assertEqual(checks.compare_reference(self.steady, entry), ([], True))
        nudged = _replace_cell(self.steady, 4, 1, repr(float(
            self.steady.splitlines()[6].split(",")[1]) + 1e-13))
        problems, same = checks.compare_reference(nudged, entry)
        self.assertEqual((problems, same), ([], False))
        moved = _replace_cell(self.steady, 4, 1, "0.9")
        self.assertTrue(checks.compare_reference(moved, entry)[0])


class TraceTest(unittest.TestCase):
    def test_wrappers_are_removed_and_bytes_unchanged(self):
        originals = {(p, a): getattr(layertrace.Tracer(PACKAGE)._owner(p), a)
                     for p, a in layertrace.TRACED}
        plain = _run(EMISSION.argv)
        tracer = layertrace.Tracer(PACKAGE)
        with tracer.installed():
            traced = _run(EMISSION.argv)
            steady = _run(STEADY.argv)
        self.assertEqual(traced, plain)
        self.assertEqual(steady, _run(STEADY.argv))
        for (path, attr), original in originals.items():
            self.assertIs(getattr(tracer._owner(path), attr), original)
        layers = layertrace.layer_metrics(tracer.spans, 1.0, EMISSION.points, 0)
        self.assertEqual(layers["scattering.evals_per_point"], 2.0)
        self.assertEqual(layers["jc.calls"], EMISSION.points)
        self.assertEqual(layers["master.gain_table_calls"], 1)
        self.assertGreater(layers["master.direct.factor_s"], 0.0)


class ReferenceSecondsTest(unittest.TestCase):
    def test_scale_uses_the_mean_of_the_samples_in_the_span(self):
        sampler = calibrate.Sampler()
        sampler.times = [1.0, 2.0, 3.0, 4.0]
        sampler.kernel_s = [1e-4, 2e-4, 4e-4, 8e-4]
        reference = calibrate.REFERENCE_S["scalar"]
        self.assertAlmostEqual(sampler.scale(1.5, 3.5),
                               reference / statistics.fmean([2e-4, 4e-4]))
        # a span between two samples takes the mean of the latest ones
        self.assertAlmostEqual(sampler.scale(4.2, 4.4),
                               reference / statistics.fmean(sampler.kernel_s))
        self.assertEqual(calibrate.Sampler().scale(0.0, 1.0), 1.0)

    def test_sampler_samples_while_active_and_restores_the_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        for kind in calibrate.KERNELS:
            with calibrate.Sampler(kind) as sampler:
                deadline = time.perf_counter() + 0.8
                while time.perf_counter() < deadline:
                    sum(range(1000))
            self.assertGreater(len(sampler.kernel_s), 5)
            self.assertTrue(all(k > 0 for k in sampler.kernel_s))
            self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
            self.assertIs(signal.getsignal(signal.SIGALRM), before)
            count = len(sampler.kernel_s)
            time.sleep(2 * calibrate.INTERVAL_S)
            self.assertEqual(len(sampler.kernel_s), count)


if __name__ == "__main__":
    unittest.main()
