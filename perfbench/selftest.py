"""Self-tests of the benchmark (stdlib unittest; about half a minute).

    python3 perfbench/selftest.py

Not collected by pytest: the traced-count oracle runs the full reference
study, which is too slow for the package's tier-1 suite.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import check
import run
import workloads
from tracer import Tracer, layer_metrics
from worker import COMMANDS, import_package, spread, study

pademor = import_package()


def run_study(config, outdir, tracer=None):
    path = os.path.join(outdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    for op in study(pademor.cli, path, outdir, tracer):
        assert op["rc"] == 0 and op["warnings"] == 0, op


class TmpDir(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.tmp)


class TestChecker(TmpDir):
    """The checker passes seed outputs, passes better accuracy and rejects
    corrupted CSVs."""

    def setUp(self):
        super().setUp()
        self.config = workloads.make_config("synthetic_dense_grid")
        self.ref = check.load_reference("synthetic_dense_grid")
        path = os.path.join(self.tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(self.config, fh)
        self.out = os.path.join(self.tmp, "poles.csv")
        self.assertEqual(pademor.cli.main(["poles", "--config", path, "--out", self.out]), 0)
        with open(self.out, newline="") as fh:
            self.text = fh.read()

    def problems(self, text):
        with open(self.out, "w", newline="") as fh:
            fh.write(text)
        return check.check_output("poles", self.config, self.out, self.ref)

    def edit_cell(self, row, col, fn):
        rows = [line.split(",") for line in self.text.splitlines()]
        rows[row][col] = fn(rows[row][col])
        return "\n".join(",".join(r) for r in rows) + "\n"

    def test_seed_output_passes(self):
        self.assertEqual(self.problems(self.text), [])

    def test_smaller_error_passes(self):
        self.assertEqual(self.problems(self.edit_cell(3, 1, lambda c: repr(float(c) / 10))), [])

    def test_larger_error_fails(self):
        problems = self.problems(self.edit_cell(3, 1, lambda c: repr(float(c) * 1.01)))
        self.assertTrue(any("larger than the seed reference" in p for p in problems))

    def test_corruptions_fail(self):
        corrupt = [
            self.text.replace("abs_error_fast_lambda1", "abs_err_fast_lambda1"),
            self.text.rsplit("\n", 2)[0] + "\n",  # a row dropped
            self.edit_cell(2, 1, lambda c: "abc"),
            self.edit_cell(2, 2, lambda c: "-" + c),
            self.edit_cell(2, 1, lambda c: "nan"),
            self.edit_cell(2, 1, lambda c: "inf"),
            self.edit_cell(2, 0, lambda c: "99"),
            self.text.replace("\n", "\r\n"),
        ]
        for text in corrupt:
            with self.subTest(text=text[:60]):
                self.assertNotEqual(self.problems(text), [])

    def test_build_artifact(self):
        config = workloads.make_config("synthetic_dense_grid", tiny=True)
        path = os.path.join(self.tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(self.tmp, "build.json")
        self.assertEqual(pademor.cli.main(["build", "--config", path, "--out", out]), 0)
        self.assertEqual(check.check_output("build", config, out), [])
        with open(out) as fh:
            data = json.load(fh)
        data["approximants"][0]["numerator"].pop()
        with open(out, "w") as fh:
            json.dump(data, fh)
        self.assertNotEqual(check.check_output("build", config, out), [])


class TestTracer(TmpDir):
    def test_reference_counts_match_hand_derived(self):
        """Every binding is traced, including `from .modal import ...` names
        in harness and pade; the oracle is the count derived from the code."""
        tracer = Tracer()
        tracer.install(pademor)
        try:
            self.assertTrue(hasattr(pademor.harness.evaluate_exact, "__wrapped__"))
            self.assertIs(pademor.pade.taylor_coefficients,
                          pademor.modal.taylor_coefficients)
            run_study(workloads.make_config("synthetic_dense_grid"), self.tmp, tracer)
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(pademor.harness.evaluate_exact, "__wrapped__"))
        self.assertFalse(hasattr(pademor.cli.COMMANDS["build"], "__wrapped__"))
        m = layer_metrics(tracer.spans)
        self.assertEqual(m["modal.evaluate_exact.calls"], 606 + 12 + 1414)
        self.assertEqual(m["modal.pole_list.calls"], 2091)
        self.assertEqual(m["pade.build.calls"], 46)
        self.assertEqual(m["numerics.hermitian_eigensystem.calls"], 69)
        self.assertEqual(m["numerics.hermitian_eigensystem.per_denominator"], 2.0)
        self.assertEqual(m["cli.main.calls"], 5)
        self.assertEqual(m["harness.output.calls"], 5)
        self.assertAlmostEqual(m["modal.evaluate_exact.useful_ratio"], (101 + 2 + 101) / 2032)
        for span in tracer.spans:
            self.assertLessEqual(span[1], span[2])


class TestWorkloads(unittest.TestCase):
    def test_seeds(self):
        for name in workloads.WORKLOADS:
            base = workloads.make_config(name)
            self.assertEqual(base, workloads.WORKLOADS[name]())
            self.assertEqual(workloads.make_config(name, 7), workloads.make_config(name, 7))
            for seed in range(1, 300):
                config = workloads.make_config(name, seed)
                self.assertNotEqual(config["K"], base["K"])
                sizes = ("grid_points", "M_list", "N", "E_list", "z_probes")
                self.assertEqual([config[k] for k in sizes], [base[k] for k in sizes])
                if name == "synthetic_dense_grid":
                    poles = [complex(*p) for p in config["model"]["poles"]]
                    self.assertEqual(len(poles), 12)
                    for p in poles:
                        for pr in config["z_probes"]:
                            self.assertGreaterEqual(abs(p - complex(*pr)), 0.05)


class TestLoopPlan(unittest.TestCase):
    def test_call_counts(self):
        """Counts come from the seed code's times: as many calls as whole
        studies fit in `seconds` (at least MIN_CALLS), more for cheap ones."""
        seed_s = workloads.SEED_CALL_S
        self.assertEqual(run.call_counts(seed_s["helmholtz_reference"], 30),
                         dict.fromkeys(COMMANDS, 43))
        self.assertEqual(run.call_counts(seed_s["synthetic_dense_grid"], 30),
                         {"build": 75, "sweep": 53, "convergence": 95, "poles": 53, "compare": 53})
        for name in workloads.WORKLOADS:
            counts = run.call_counts(seed_s[name], 1)
            self.assertEqual(sorted(counts), sorted(COMMANDS))
            self.assertGreaterEqual(min(counts.values()), run.MIN_CALLS)

    def test_reference_seconds(self):
        """Median ratio of each sample to its calibration, at CAL_REF_S."""
        ref = run.CAL_REF_S
        self.assertAlmostEqual(run.reference_seconds([(0.2, ref)]), 0.2)
        # A call slowed with its calibration reads the same.
        samples = [(0.2, ref), (0.3, 1.5 * ref), (0.5, 2 * ref)]
        self.assertAlmostEqual(run.reference_seconds(samples), 0.2)

    def test_spread_over_rounds(self):
        for rounds in (1, 2, 14, 735):
            for n in range(0, rounds + 12):
                per_round = [spread(n, rounds, r) for r in range(rounds)]
                self.assertEqual(sum(per_round), n)
                self.assertLessEqual(max(per_round) - min(per_round), 1)


class TestSmoke(unittest.TestCase):
    def test_tiny_run_of_each_workload(self):
        for name in workloads.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    summary, _ = run.run(name, 5, 1, trace, tiny=True)
                    self.assertTrue(summary["correct"])
                    self.assertEqual(summary["failed"], 0)
                    self.assertEqual(list(summary["metrics"]), list(names))
                    for m in summary["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            here = os.path.dirname(os.path.abspath(__file__))
            shutil.copytree(here, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "highorder_poles",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
