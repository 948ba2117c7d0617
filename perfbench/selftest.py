"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check that the metric names the benchmark prints are exactly the
ones BENCHMARK.json declares, in the allowed alphabet, that output checks
turn a perturbed trajectory, a non-zero exit and non-deterministic
artifacts into failed ops, and that the benchmark refuses to run without
the fracdyn tree next to it.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads as wl

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def result_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class Scratch:
    """A fresh directory under the checkout's work area."""

    def __init__(self, name):
        self.path = run.WORK / f"selftest-{name}"

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


class MetricNames(unittest.TestCase):
    def test_declared_names_use_the_allowed_alphabet(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(wl.WORKLOADS))

    def test_printed_metrics_match_the_declaration(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                code, result = result_of(["--workload", "paper-cli", "--seed", "0",
                                          "--seconds", "0.1", "--trace", str(trace)])
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                declared = {m["name"]: m["unit"] for m in SPEC[key]}
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)


class FailedOps(unittest.TestCase):
    def setUp(self):
        self.workload = wl.build("paper-cli", 0, wl.load_reference())
        self.op = next(op for op in wl.paper_ops() if op.key == "simulate")
        self.expected = self.workload.expected[self.op.key]

    def _write_outputs(self, workdir, report):
        (workdir / wl.OUT).mkdir(parents=True, exist_ok=True)
        (workdir / wl.OUT / "report.kv").write_text(report, encoding="utf-8")

    def test_reference_outputs_pass(self):
        checker = run.Checker(self.workload)
        with Scratch("pass") as workdir:
            self._write_outputs(workdir, self.expected[f"{wl.OUT}/report.kv"])
            self.assertTrue(checker.check(self.op, 0, self.expected[wl.STDOUT], "", workdir))
        self.assertEqual(checker.failures, [])

    def test_perturbed_trajectory_is_a_failed_op(self):
        report = self.expected[f"{wl.OUT}/report.kv"]
        line = next(l for l in report.splitlines() if l.startswith("final_1="))
        value = float(line.partition("=")[2])
        perturbed = report.replace(line, f"final_1={value * (1 + 1e-6)!r}")
        checker = run.Checker(self.workload)
        with Scratch("perturbed") as workdir:
            self._write_outputs(workdir, perturbed)
            self.assertFalse(checker.check(self.op, 0, self.expected[wl.STDOUT], "", workdir))
        self.assertEqual((checker.attempted, len(checker.failures)), (1, 1))

    def test_reordered_sum_noise_is_tolerated(self):
        report = self.expected[f"{wl.OUT}/report.kv"]
        line = next(l for l in report.splitlines() if l.startswith("final_1="))
        value = float(line.partition("=")[2])
        nudged = report.replace(line, f"final_1={value * (1 + 1e-12)!r}")
        self.assertIsNone(wl.text_mismatch(nudged, report))

    def test_integers_must_match_exactly(self):
        self.assertIsNotNone(wl.text_mismatch("steps=501", "steps=500"))
        self.assertIsNotNone(wl.text_mismatch("fitted order: 1.5646", "fitted order: 1.5644"))
        self.assertIsNone(wl.text_mismatch("fitted order: 1.5645", "fitted order: 1.5644"))

    def test_changed_artifacts_are_a_failed_op(self):
        checker = run.Checker(self.workload)
        with Scratch("determinism") as workdir:
            self._write_outputs(workdir, self.expected[f"{wl.OUT}/report.kv"])
            (workdir / wl.OUT / "fig1.svg").write_text("<svg/>\n", encoding="utf-8")
            self.assertTrue(checker.check(self.op, 0, self.expected[wl.STDOUT], "", workdir))
            (workdir / wl.OUT / "fig1.svg").write_text("<svg />\n", encoding="utf-8")
            self.assertFalse(checker.check(self.op, 0, self.expected[wl.STDOUT], "", workdir))
        self.assertEqual((checker.attempted, len(checker.failures)), (2, 1))

    def test_nonzero_exit_is_a_failed_op(self):
        bad = wl.Op("simulate", ("simulate", "--system", "no-such-system", "--alpha", "0.65",
                                 "--h", "0.01", "--steps", "10", "--x0", "1"))
        workload = wl.Workload("bad", {}, {bad.key: {}}, lambda: [bad])
        checker = run.Checker(workload)
        with Scratch("exit") as workdir:
            walls, _, imports, _ = run.timed_run(workload, 0.0, workdir, run.op_env(), checker)
        self.assertEqual((len(walls), len(imports)), (1, run.SETUP_MIN_REPEATS))
        self.assertEqual((checker.attempted, len(checker.failures)), (1, 1))
        self.assertIn("exit 2", checker.failures[0][1][0])


class TreeUnderTest(unittest.TestCase):
    def test_refuses_a_directory_without_the_program(self):
        with Scratch("bare") as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-cli",
                                   "--seed", "0", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_ops_import_the_checkout(self):
        with Scratch("tree") as workdir:
            run.check_tree(run.op_env(), workdir)
        self.assertTrue(Path(run.import_tree().__file__).resolve().is_relative_to(run.SRC))


if __name__ == "__main__":
    unittest.main()
