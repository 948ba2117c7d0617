import contextlib
import errno
import gc
import io
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV, tree_bytes
from fracdyn import artifacts, registry, solver
from fracdyn.artifacts import write_csv
from fracdyn.cli import main
from fracdyn.expconfig import ExperimentConfig, serialize_config
from fracdyn.solver import Trajectory

SQRT3_4 = math.sqrt(3.0) / 4.0

REFERENCE_RUN = [
    "simulate",
    "--system", "maxwell-bloch-5d-controlled",
    "--alpha", "0.65", "--h", "0.01", "--steps", "500",
    "--epsilon", "0.01",
    "--gains", "1.2", "1.2", "0.5", "0.5", "0",
    "--target-e1", repr(SQRT3_4), "0.25",
]


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


class TestSimulate:
    def test_reference_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(REFERENCE_RUN + ["--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "final state:" in printed
        assert "final distance to target:" in printed

        csv = (out / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "step,t,x1,x2,x3,x4,x5"
        assert len(csv) == 1 + 501
        first = csv[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(SQRT3_4 + 0.01)

        for i in range(1, 6):
            assert (out / f"fig{i}.svg").exists()
        assert not (out / "fig6.svg").exists()

        report = read_kv(out / "report.kv")
        assert report["system"] == "maxwell-bloch-5d-controlled"
        assert float(report["final_distance"]) < float(report["initial_distance"])

    def test_distance_whose_square_overflows_is_finite(self, tmp_path, capsys):
        out = tmp_path / "far"
        assert main(["simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.5",
                     "--h", "0.1", "--steps", "2", "--x0", "1e308", "1e308", "0", "0", "0",
                     "--target-e2", "0", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "initial distance to target: 1.4142135623730951e+308\n" in captured.out
        assert captured.err == ""
        assert read_kv(out / "report.kv")["initial_distance"] == "1.4142135623730951e+308"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(REFERENCE_RUN + ["--output", str(a)]) == 0
        assert main(REFERENCE_RUN + ["--output", str(b)]) == 0
        for name in ["trajectory.csv", "report.kv"] + [f"fig{i}.svg" for i in range(1, 6)]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_field_gives_constant_columns(self, tmp_path):
        out = tmp_path / "flat"
        code = main([
            "simulate", "--system", "zero-field-5d", "--alpha", "1.0",
            "--h", "0.1", "--steps", "20",
            "--x0", "1", "-2", "3", "0", "0.5",
            "--output", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in
                (out / "trajectory.csv").read_text().splitlines()[1:]]
        columns = {tuple(row[2:]) for row in rows}
        assert len(columns) == 1

    def test_uncontrolled_run_departs_equilibrium(self, tmp_path):
        out = tmp_path / "away"
        code = main([
            "simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.65",
            "--h", "0.01", "--steps", "500", "--epsilon", "0.01",
            "--target-e2", "1.0", "--output", str(out),
        ])
        assert code == 0
        report = read_kv(out / "report.kv")
        assert float(report["final_distance"]) > float(report["initial_distance"])

    def test_config_file_and_seed_env(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            system="maxwell-bloch-5d-controlled", alpha=0.65, h=0.01, steps=50,
            epsilon=0.01, gains=(1.2, 1.2, 0.5, 0.5, 0.0),
            target=("e1", SQRT3_4, 0.25), seed=5, output_dir=str(tmp_path / "cfgrun"),
        )
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 0
        assert read_kv(tmp_path / "cfgrun" / "report.kv")["seed"] == "5"

        # the stored seed survives the variable the sampled tests read
        monkeypatch.setenv("FRACDYN_SEED", "31")
        out2 = tmp_path / "cfgrun2"
        assert main(["simulate", "--config", str(path), "--output", str(out2)]) == 0
        assert read_kv(out2 / "report.kv")["seed"] == "5"

    def test_flag_overrides_config(self, tmp_path):
        cfg = ExperimentConfig(
            system="zero-field-5d", alpha=0.65, h=0.01, steps=10,
            x0=(0.0,) * 5, output_dir=str(tmp_path / "o1"),
        )
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        out = tmp_path / "o2"
        assert main(["simulate", "--config", str(path), "--steps", "4",
                     "--output", str(out)]) == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 5

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = main([
            "simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.65",
            "--h", "0.01", "--steps", "50",
            "--x0", "1e150", "1e150", "1e150", "1e150", "1e150",
            "--output", str(tmp_path / "boom"),
        ])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_failure_past_the_first_block_keeps_its_step(self, tmp_path, capsys):
        # gains just past the step-size stability limit: the error grows
        # slowly and overflows long after the far-field sums have started
        code = main([
            "simulate", "--system", "maxwell-bloch-5d-controlled", "--alpha", "0.65",
            "--h", "0.01", "--steps", "600", "--epsilon", "0.01",
            "--gains", *["29.7"] * 5, "--target-e2", "-0.125",
            "--output", str(tmp_path / "boom"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure at step 442: "
            "non-finite predictor field value at step 442 (t = 4.42)\n"
        )

    def test_config_errors_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--system", "no-such-system", "--alpha", "0.5",
                     "--h", "0.1", "--steps", "5", "--x0", "1",
                     "--output", str(tmp_path)]) == 2
        assert main(["simulate", "--system", "linear-decay", "--alpha", "0.5",
                     "--h", "0.1", "--steps", "5"]) == 2  # no x0/epsilon
        capsys.readouterr()

    def test_missing_required_options(self, capsys):
        assert main(["simulate", "--alpha", "0.5"]) == 2
        assert capsys.readouterr().err == "error: missing required options: system, h, steps\n"

    @pytest.mark.parametrize("text, message", [
        ("[run]\nsystem =\nalpha = 0.5\nh = 0.1\nsteps = 5\n", "missing system name"),
        ("[run]\nsystem = linear-decay\nalpha = 0.5\nh = 0.1\nsteps = 5\n"
         "[initial]\nepsilon = 0.01\n[control]\ntarget =\n", "empty target"),
    ], ids=["system", "target"])
    def test_empty_config_value_is_bad_input(self, tmp_path, capsys, text, message):
        path = tmp_path / "empty.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_config_is_one_error_line(self, tmp_path, capsys):
        # configparser's own message spans three lines
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 1\n[run]\n", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse configuration: File contains no section")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_step_size_is_bad_input(self, tmp_path, capsys, h):
        assert main(["simulate", "--system", "linear-decay", "--alpha", "0.5",
                     "--h", h, "--steps", "5", "--x0", "1",
                     "--output", str(tmp_path)]) == 2
        assert "step size" in capsys.readouterr().err

    def test_overflowing_horizon_is_bad_input(self, tmp_path, capsys):
        assert main(["simulate", "--system", "zero-field-5d", "--alpha", "0.65",
                     "--h", "1e308", "--steps", "10", "--x0", "1", "1", "1", "1", "1",
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: horizon h * steps = inf is not finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system, start, target, message", [
        ("maxwell-bloch-5d", ["--epsilon", "1.7e308"], ["--target-e1", "0", "1.7e308"],
         "state contains non-finite components"),
        ("zero-field-5d", ["--epsilon", "1.7e308"], ["--target-e2", "0"],
         "the distance from x0 to the target leaves the float range"),
        ("zero-field-5d", ["--x0", "0", "0", "1.7e308", "1.7e308", "0"], ["--target-e2", "0"],
         "the distance from x0 to the target leaves the float range"),
    ])
    def test_start_beyond_the_float_range_is_bad_input(self, tmp_path, capsys, system, start,
                                                       target, message):
        assert main(["simulate", "--system", system, "--alpha", "0.3", "--h", "0.01",
                     "--steps", "1", *start, *target, "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start", [["--epsilon", "0.1"], ["--x0", "1"]])
    def test_target_of_another_dimension_is_bad_input(self, tmp_path, capsys, start):
        assert main(["simulate", "--system", "linear-decay", "--alpha", "0.5", "--h", "0.1",
                     "--steps", "5", *start, "--target-e2", "0",
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target dimension does not match the system\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system, start, gains", [
        ("zero-field-5d", ["--x0", "1", "1", "1", "1", "1"], ["-5", "nan", "1", "1", "1"]),
        ("maxwell-bloch-5d", ["--epsilon", "0.01", "--target-e1", repr(SQRT3_4), "0.25"],
         ["9"] * 5),
        ("linear-decay", ["--x0", "1"], ["1"]),
    ])
    def test_gains_for_a_plain_system_are_bad_input(self, tmp_path, capsys, system, start,
                                                    gains):
        assert main(["simulate", "--system", system, "--alpha", "0.65", "--h", "0.01",
                     "--steps", "10", *start, "--gains", *gains,
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {system} takes no gains; feedback gains need "
                                "maxwell-bloch-5d-controlled\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("conflict", [
        ["--x0", "0.4", "0.25", "0", "0", "0", "--epsilon", "0.01"],
        ["--target-e1", repr(SQRT3_4), "0.25", "--target-e2", "-0.125"],
    ])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_conflicting_flags_exit_2(self, tmp_path, capsys, conflict, with_config):
        cfg = ExperimentConfig(
            system="maxwell-bloch-5d-controlled", alpha=0.65, h=0.01, steps=10,
            epsilon=0.01, gains=(1.2, 1.2, 0.5, 0.5, 0.0),
            target=("e1", SQRT3_4, 0.25), output_dir=str(tmp_path / "from-file"),
        )
        path = tmp_path / "exp.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        argv = REFERENCE_RUN[:1] + (["--config", str(path)] if with_config else REFERENCE_RUN[1:])
        argv += ["--output", str(tmp_path / "out")] + conflict
        assert main(argv) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "from-file").exists()

    def test_csv_rows_match_per_cell_format(self, tmp_path):
        edge = [0.0, -0.0, 1e-20, -1e-20, 1e20, -1e20, 5e-324, 0.1, 1 / 3,
                2.0 ** 53, math.pi, 1e-5, 123456789.123, float("inf"), float("nan")]
        states = np.array(edge * 5).reshape(15, 5)
        times = np.linspace(0.0, 1.4, 15)
        path = tmp_path / "t.csv"
        write_csv(path, Trajectory(times, states))
        want = ["step,t,x1,x2,x3,x4,x5"] + [
            ",".join([str(i), f"{float(t):.17g}"] + [f"{float(v):.17g}" for v in row])
            for i, (t, row) in enumerate(zip(times, states))
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"


class TestStability:
    def test_uncontrolled_unstable(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e2", "-0.125"]) == 0
        assert "verdict: Unstable" in capsys.readouterr().out

    def test_controlled_stable_with_gains(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e2", "-0.125",
                     "--gains", "0.25", "1.5", "0.25", "0.6666666666666666", "1"]) == 0
        assert "verdict: AsymptoticallyStable" in capsys.readouterr().out

    def test_alpha_boundary_accepted(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "1.0",
                     "--e1", "1", "0"]) == 0
        capsys.readouterr()

    def test_kv_format(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e2", "-0.125", "--format", "kv"]) == 0
        entries = dict(line.split("=", 1) for line in
                       capsys.readouterr().out.strip().splitlines())
        assert entries["verdict"] == "Unstable"
        assert float(entries["alpha"]) == 0.65

    def test_non_equilibrium_rejected(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--point", "1", "1", "1", "1", "1"]) == 2
        capsys.readouterr()

    def test_non_finite_family_point_is_bad_input(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e1", "nan", "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: m or n exceeds the float range or is not finite\n")

    def test_point_selection_errors(self, capsys):
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65"]) == 2
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e2", "1", "--e1", "1", "0"]) == 2
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e2", "1", "--point", "0", "0", "0", "0", "1"]) == 2
        assert main(["stability", "maxwell-bloch-5d", "--alpha", "0.65",
                     "--e1", "1", "0", "--point", "1", "0", "0", "0", "0"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestGainsCheck:
    def test_e2_reference_case(self, capsys):
        assert main(["gains-check",
                     "--gains", "0.25", "1.5", "0.25", "0.6666666666666666", "1",
                     "--e2", "-0.125", "--alpha", "0.65"]) == 0
        out = capsys.readouterr().out
        assert "delta1 = -0.5" in out
        assert "C4" in out
        assert "stable for all alpha in (0, 1]: yes" in out
        assert "AsymptoticallyStable" in out

    def test_e2_kv_format(self, capsys):
        assert main(["gains-check",
                     "--gains", "0.25", "1.5", "0.25", "0.6666666666666666", "1",
                     "--e2", "-0.125", "--format", "kv"]) == 0
        entries = dict(line.split("=", 1) for line in
                       capsys.readouterr().out.strip().splitlines())
        assert entries["delta1"] == "-0.5"
        assert entries["condition_C4"] == "yes"
        assert entries["stable_all_alpha"] == "yes"

    def test_e1_negative_discriminant_case(self, capsys):
        assert main(["gains-check", "--gains", "1.2", "1.2", "0.5", "0.5", "0",
                     "--e1", "0.5", "0", "--alpha", "0.65"]) == 0
        out = capsys.readouterr().out
        assert "a3 = 0.125" in out
        assert "D(P) = -0.046875" in out
        assert "(0, 2/3)" in out
        assert "AsymptoticallyStable" in out

    def test_e1_positive_discriminant_case(self, capsys):
        assert main(["gains-check", "--gains", "1", "1", "3", "3", "0",
                     "--e1", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert "D(P) = 5" in out
        assert "(0, 1)" in out

    def test_zero_discriminant_case(self, capsys):
        # the repeated root comes out as a pair whose imaginary digits depend
        # on LAPACK, so only the decision lines are pinned
        assert main(["gains-check", "--gains", "1", "1", "2", "2", "0",
                     "--e1", "1", "0", "--format", "kv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("discriminant=0", "routh_hurwitz=NotDecided", "alpha_range=undecided"):
            assert line in lines

    @pytest.mark.parametrize("argv", [
        ["--gains", "1", "1", "1", "1", "1", "--e2", "nan"],
        ["--gains", "1", "1", "1", "1", "inf", "--e2", "-0.125"],
        ["--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "nan", "0"],
        ["--gains", "1.2", "1.2", "nan", "0.5", "0", "--e1", "0.5", "0"],
        ["--gains", "nan", "1.2", "0.5", "0.5", "0", "--e1", "0.5", "0"],
        ["--gains", "-1", "1", "0.5", "0.5", "0", "--e1", "0.5", "0"],
        # m^2 overflows, and a2 and a3 with it
        ["--gains", "1", "1", "1", "1", "1", "--e1", "1e200", "1e200"],
        ["--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "1.4e154", "0"],
        # (k1 - k3)^2 overflows
        ["--gains", "1e200", "1", "1", "1", "1", "--e2", "1"],
    ])
    def test_non_finite_input_is_bad_input(self, capsys, argv):
        assert main(["gains-check"] + argv) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("m", ["1e31", "1e51", "2e51", "1e103", "7.8e153", "1.3e154"])
    def test_huge_m_is_stable(self, capsys, m):
        # from 2e51 D(P) overflows, prints as undefined and is not refused;
        # the polished roots keep the O(1) root the companion eigenvalues lose,
        # also from 7.7e153 on, where p'(lambda) = 3 lambda^2 + ... overflows
        assert main(["gains-check", "--gains", "1.2", "1.2", "0.5", "0.5", "0",
                     "--e1", m, "0", "--alpha", "0.65", "--format", "kv"]) == 0
        entries = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert entries["verdict"] == "AsymptoticallyStable"
        assert entries["routh_hurwitz"] == (
            "StableAlphaBelowTwoThirds" if float(m) < 2e51 else "NotDecided")
        assert (entries["discriminant"] == "undefined") == (float(m) >= 2e51)
        pair = [float(entries[f"eig_{i}_re"]) for i in range(1, 6)
                if float(entries[f"eig_{i}_im"]) != 0]
        assert len(pair) == 2 and all(abs(re + 0.25) <= 1e-15 for re in pair)

    def test_family_selection_required(self, capsys):
        assert main(["gains-check", "--gains", "1", "1", "1", "1", "1"]) == 2
        assert main(["gains-check", "--gains", "1", "1", "1", "1", "1",
                     "--e1", "1", "0", "--e2", "0.5"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err


# with k5 = 0 (the paper's gains) a3 = k4*m^2 underflows to 0 at m = 1e-200
@pytest.mark.parametrize("gains", [["1.2", "1.2", "0.5", "0.5", "0.1"],
                                   ["1.2", "1.2", "0.5", "0.5", "0"]], ids=["k5>0", "k5=0"])
@pytest.mark.parametrize("m, n, code", [("1e-7", "0", 0), ("1e-200", "0", 0), ("0", "0", 2)])
def test_every_command_accepts_the_same_e1_targets(tmp_path, capsys, gains, m, n, code):
    # family membership is exact, no command squares m or n to test it, and
    # the Routh-Hurwitz diagnostic cannot refuse a point the others accept
    argvs = [
        ["simulate", "--system", "maxwell-bloch-5d-controlled", "--alpha", "0.65",
         "--h", "0.01", "--steps", "10", "--epsilon", "0.01", "--gains", *gains,
         "--target-e1", m, n, "--output", str(tmp_path)],
        ["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--gains", *gains,
         "--e1", m, n],
        ["gains-check", "--gains", *gains, "--e1", m, n],
    ]
    codes = [main(argv) for argv in argvs]
    assert codes == [code] * 3, capsys.readouterr().err
    out = capsys.readouterr().out
    if gains[4] == "0" and m == "1e-200":  # a3 == 0: a zero root, no range certified
        assert "routh-hurwitz: NotDecided\n" in out
        assert "argument-test threshold: unstable at every order" in out


def test_config_parse_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 1\n[run]\n", encoding="utf-8")
    for argv in (["simulate", "--config", str(path)], ["sweep", str(path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"file: {str(path)!r}, line: 1" in err and "<string>" not in err, argv


class TestConvergence:
    def test_classical_slope(self, capsys):
        assert main(["convergence", "--alpha", "1.0",
                     "--h-list", "0.04", "0.02", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "fitted order:" in out
        slope = float(out.split("fitted order:")[1].split()[0])
        assert 1.8 <= slope <= 2.2

    def test_single_step_size_table_only(self, capsys):
        assert main(["convergence", "--alpha", "0.65", "--h-list", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "not fitted" in out
        assert "fitted order:" not in out

    def test_sizes_that_do_not_halve_print_the_table_unfitted(self, capsys):
        assert main(["convergence", "--alpha", "0.65", "--h-list", "0.1", "0.05", "0.03",
                     "--tau", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["0.1", "0.05", "0.03"]
        assert lines[4:] == ["order: not fitted (need at least three halving step sizes)"]

    @pytest.mark.parametrize("k", [0, 100, 1000])
    def test_order_line_ignores_the_scale_of_x0(self, capsys, k):
        def order_line(x0):
            assert main(["convergence", "--alpha", "0.65", "--h-list", "0.04", "0.02", "0.01",
                         "--x0", repr(x0)]) == 0
            return capsys.readouterr().out.splitlines()[-1]

        assert order_line(2.0 ** -k) == order_line(1.0) == \
            "fitted order: 0.9062 (fit residual 4.23e-02)"

    def test_degenerate_zero_field_slope(self, capsys):
        # the scalar problem from x0 = 0 has the identically-zero solution
        assert main(["convergence", "--alpha", "0.65", "--x0", "0.0",
                     "--h-list", "0.04", "0.02", "0.01"]) == 0
        assert "order undefined" in capsys.readouterr().out

    @pytest.mark.parametrize("h_list", [["0.03"], ["0.03", "0.015", "0.0075"]])
    def test_step_size_must_divide_horizon(self, capsys, h_list):
        assert main(["convergence", "--alpha", "0.65", "--tau", "1",
                     "--h-list"] + h_list) == 2
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("h_list, message", [
        (["0.1", "1e-7"], "error: step size 1e-07 needs over 1000000 steps to reach 1.0\n"),
        (["0.1", "0.03"], "error: step size 0.03 does not divide the horizon 1.0\n"),
    ])
    def test_bad_step_size_fails_before_any_run(self, capsys, monkeypatch, h_list, message):
        calls, integrate = [], solver.integrate
        monkeypatch.setattr(solver, "integrate",
                            lambda *args: calls.append(1) or integrate(*args))
        assert main(["convergence", "--alpha", "0.65", "--tau", "1", "--h-list", *h_list]) == 2
        assert capsys.readouterr().err == message
        assert calls == []

    def test_non_finite_oracle_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(registry, "oracle_for",
                            lambda *args: lambda t: math.nan if t > 0.5 else 1.0)
        assert main(["convergence", "--alpha", "0.65", "--h-list", "0.1"]) == 2
        assert capsys.readouterr().err == "error: oracle is not finite at t = 0.6\n"

    @pytest.mark.parametrize("option", [
        ["--tau", "nan"], ["--tau", "inf"], ["--t-min", "nan"], ["--h-list", "0"],
        # tau / h overflows to inf
        ["--h-list", "1e-10", "--tau", "1e300"],
        # no grid point lies in the window t >= t_min
        ["--h-list", "0.1", "0.05", "0.025", "--tau", "1", "--t-min", "5"],
        # the oracle's series misses its truncation bound just above z = -1
        ["--alpha", "0.005", "--h-list", "0.1", "0.05", "0.025", "--tau", "0.1"],
        ["--alpha", "0.009", "--h-list", "0.1", "0.05", "0.025", "--tau", "1"],
    ])
    def test_non_finite_or_zero_input_is_bad_input(self, capsys, option):
        assert main(["convergence", "--alpha", "0.65", "--h-list", "0.1"] + option) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("option, z", [
        (["0.1", "0.05", "0.025", "--tau", "0.1"], "-0.9885530946569389"),
        (["1", "--tau", "1"], "-1.0"),  # z reaches -1 at t = 1
    ])
    def test_small_order_oracle_refusal_is_bad_input(self, capsys, option, z):
        # below alpha = 0.01 the oracle's series misses its bound at and just above z = -1
        assert main(["convergence", "--alpha", "0.005", "--h-list", *option]) == 2
        message = f"E_0.005({z}) series does not meet its truncation bound within 1400 terms"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_long_horizon_oracle(self, capsys):
        # the oracle's argument reaches -(200 ** 0.65) = -31.3
        assert main(["convergence", "--alpha", "0.65", "--h-list", "1", "0.5", "0.25",
                     "--tau", "200", "--x0", "1"]) == 0
        assert "fitted order:" in capsys.readouterr().out

    def test_system_without_oracle_rejected(self, capsys):
        assert main(["convergence", "--system", "maxwell-bloch-5d",
                     "--alpha", "0.65", "--h-list", "0.04", "0.02", "0.01"]) == 2
        capsys.readouterr()


real_write_artifacts = artifacts.write_artifacts
TEST_PID = os.getpid()


def write_artifacts_and_pid(cfg, traj, target, cache=None):
    """artifacts.write_artifacts, then the writing process's id in writer.pid."""
    real_write_artifacts(cfg, traj, target, cache)
    (Path(cfg.output_dir) / "writer.pid").write_text(str(os.getpid()))


def write_unless_forked(cfg, traj, target, cache=None):
    """artifacts.write_artifacts, but a writer forked from this test process is
    killed first, as by the kernel's OOM killer, leaving a file `killed`
    two levels above its output directory."""
    if os.getpid() != TEST_PID:
        (Path(cfg.output_dir).parents[1] / "killed").touch()
        os.kill(os.getpid(), signal.SIGKILL)
    real_write_artifacts(cfg, traj, target, cache)


E2_RUN = dict(target=("e2", -0.125), gains=(0.25, 1.5, 0.25, 2.0 / 3.0, 1.0), steps=600)


class TestSweep:
    GAINS = (1.2, 1.2, 0.5, 0.5, 0.0)

    @pytest.fixture(autouse=True)
    def no_writer_left_running(self):
        yield
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == 0  # collections cover every object again

    def _write(self, tmp_path, name, outdir, **changes):
        fields = dict(
            system="maxwell-bloch-5d-controlled", alpha=0.65, h=0.01, steps=30,
            epsilon=0.01, gains=self.GAINS,
            target=("e1", SQRT3_4, 0.25), output_dir=str(outdir),
        )
        fields.update(changes)
        path = tmp_path / name
        path.write_text(serialize_config(ExperimentConfig(**fields)), encoding="utf-8")
        return path

    def _plain(self, tmp_path, name, x0, **changes):
        return self._write(tmp_path, f"{name}.cfg", tmp_path / "out" / name,
                           system="maxwell-bloch-5d", x0=x0, epsilon=None,
                           gains=None, target=None, **changes)

    def test_runs_configs_in_batches(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cfg", tmp_path / "out-a")
        b = self._write(tmp_path, "b.cfg", tmp_path / "out-b")
        assert main(["sweep", str(a), str(b), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "out-a" / "trajectory.csv").exists()
        assert (tmp_path / "out-b" / "trajectory.csv").exists()

    def test_overlapping_output_dirs_rejected(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cfg", tmp_path / "same")
        b = self._write(tmp_path, "b.cfg", tmp_path / "same")
        assert main(["sweep", str(a), str(b)]) == 2
        capsys.readouterr()

    def test_configs_that_fail_to_load_fail_alone(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.cfg", tmp_path / "out" / "a")
        # epsilon without a target, writing where `a` writes: only configs
        # that loaded take part in the disjoint-directories check
        no_target = tmp_path / "no-target.cfg"
        no_target.write_text("\n".join(line for line in a.read_text().splitlines()
                                       if not line.startswith("target")))
        missing = tmp_path / "missing.cfg"
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"[run]\nsystem = caf\xe9\n")
        bad_alpha = self._write(tmp_path, "alpha.cfg", tmp_path / "out" / "alpha", alpha=7.0)
        b = self._write(tmp_path, "b.cfg", tmp_path / "out" / "b", epsilon=0.02)
        paths = [a, no_target, missing, latin1, bad_alpha, b]
        assert main(["sweep", *map(str, paths)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert err[:2] == [
            f"error in {no_target}: the epsilon shorthand needs a target equilibrium",
            f"error in {missing}: [Errno 2] No such file or directory: '{missing}'",
        ]
        assert err[2].startswith(f"error in {latin1}: 'utf-8' codec can't decode")
        assert err[3:] == ["error in maxwell-bloch-5d-controlled run: fractional order "
                           "must lie in (0, 1], got 7.0"]
        assert captured.out.splitlines()[-6:] == [
            f"{a}: ok", f"{no_target}: failed (exit 2)", f"{missing}: failed (exit 2)",
            f"{latin1}: failed (exit 2)", f"{bad_alpha}: failed (exit 2)", f"{b}: ok"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a", "b"]
        for name, path in (("a", a), ("b", b)):
            assert main(["simulate", "--config", str(path),
                         "--output", str(tmp_path / "lone" / name)]) == 0
            assert tree_bytes(tmp_path / "out" / name) == tree_bytes(tmp_path / "lone" / name)
        capsys.readouterr()

    def test_malformed_configs_print_one_error_line_each(self, tmp_path, capsys):
        bad = [tmp_path / "bad0.cfg", tmp_path / "bad1.cfg"]
        for path in bad:
            path.write_text("alpha = 1\n[run]\n", encoding="utf-8")
        a = self._write(tmp_path, "a.cfg", tmp_path / "out" / "a")
        assert main(["sweep", str(bad[0]), str(a), str(bad[1])]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line, path in zip(err, bad):
            assert line.startswith(f"error in {path}: cannot parse configuration: ")

    def test_summaries_come_in_group_order(self, tmp_path, capsys):
        # c0 and c2 form one group, c1 and c3 the next: the summaries follow
        # the groups, the closing lines the command line
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}", steps=steps)
                 for i, steps in enumerate((30, 40, 30, 40))]
        assert main(["sweep", *map(str, paths)]) == 0
        out = capsys.readouterr().out.splitlines()
        wrote = [line for line in out if line.startswith("wrote ")]
        assert wrote == [f"wrote {tmp_path / 'out' / name / 'trajectory.csv'} and 5 figure(s)"
                         for name in ("c0", "c2", "c1", "c3")]
        assert out[-4:] == [f"{path}: ok" for path in paths]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        a = self._write(tmp_path, "a.cfg", tmp_path / "out-a")
        assert main(["sweep", str(a), "--jobs", jobs]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out-a").exists()

    def test_trajectories_match_lone_simulate(self, tmp_path, capsys):
        gains = [(1.2, 1.2, 0.5, 0.5, 0.0), (0.8, 1.9, 1.1, 0.6, 1.3),
                 (2.0, 0.5, 0.7, 1.7, 0.9), (1.0, 1.0, 1.0, 1.0, 1.0)]
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "sweep" / f"c{i}",
                             gains=g, steps=400) for i, g in enumerate(gains)]
        assert main(["sweep", *map(str, paths)]) == 0
        for i, path in enumerate(paths):
            assert main(["simulate", "--config", str(path),
                         "--output", str(tmp_path / "lone" / f"c{i}")]) == 0
            swept = tree_bytes(tmp_path / "sweep" / f"c{i}")
            assert len(swept) == 7
            assert swept == tree_bytes(tmp_path / "lone" / f"c{i}")
        capsys.readouterr()

    def test_groups_split_by_system_and_steps(self, tmp_path, capsys, monkeypatch):
        calls = []
        integrate = solver.integrate

        def recording_integrate(sysdef, cfg):
            calls.append((sysdef.name, len(cfg.x0), cfg.n_steps))
            return integrate(sysdef, cfg)

        monkeypatch.setattr(solver, "integrate", recording_integrate)
        paths = [
            self._write(tmp_path, "a.cfg", tmp_path / "out" / "a"),
            self._plain(tmp_path, "b", (0.1, 0.2, 0.3, 0.4, 0.5)),
            self._write(tmp_path, "c.cfg", tmp_path / "out" / "c", steps=40),
            self._write(tmp_path, "d.cfg", tmp_path / "out" / "d", gains=(1.0,) * 5),
            self._plain(tmp_path, "e", (0.5, 0.4, 0.3, 0.2, 0.1)),
        ]
        assert main(["sweep", *map(str, paths)]) == 0
        capsys.readouterr()
        assert calls == [("maxwell-bloch-5d-controlled", 2, 30),
                         ("maxwell-bloch-5d", 2, 30),
                         ("maxwell-bloch-5d-controlled", 1, 40)]

    def test_overflowing_member_fails_alone(self, tmp_path, capsys, monkeypatch):
        # two plain members per batch, so the failing one shares a batch
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * 8 * 5 * 31)
        plain = [self._plain(tmp_path, f"p{i}", (0.1 * i, 0.2, 0.3, 0.4, -0.5))
                 for i in range(4)]
        controlled = self._write(tmp_path, "k.cfg", tmp_path / "out" / "k")
        bad = self._plain(tmp_path, "bad", (1e200, 1.0, 1.0, 1.0, 1e200))
        good = plain + [controlled]
        assert main(["sweep", *map(str, good)]) == 0
        expected = tree_bytes(tmp_path / "out")
        capsys.readouterr()

        for name in list(expected):
            (tmp_path / "out" / name).unlink()
        argv = ["sweep", *map(str, plain[:2] + [bad] + plain[2:] + [controlled])]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "numerical failure in maxwell-bloch-5d run at step 0" in captured.err
        assert f"{bad}: failed (exit 3)" in captured.out
        assert captured.out.count(": ok") == 5
        assert tree_bytes(tmp_path / "out") == expected

    def test_member_failing_past_the_first_block_keeps_its_step(self, tmp_path, capsys):
        e2 = dict(target=("e2", -0.125), gains=(0.25, 1.5, 0.25, 2.0 / 3.0, 1.0), steps=600)
        paths = [self._write(tmp_path, "a.cfg", tmp_path / "out" / "a", **e2),
                 self._write(tmp_path, "bad.cfg", tmp_path / "out" / "bad",
                             **{**e2, "gains": (29.7,) * 5}),
                 self._write(tmp_path, "b.cfg", tmp_path / "out" / "b", **e2)]
        assert main(["sweep", *map(str, paths)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "numerical failure in maxwell-bloch-5d-controlled run at step 442: "
            "non-finite predictor field value at step 442 (t = 4.42)\n"
        )
        assert f"{paths[1]}: failed (exit 3)" in captured.out
        assert captured.out.count(": ok") == 2

    def test_gains_for_a_plain_system_fail_that_config_only(self, tmp_path, capsys):
        paths = [self._write(tmp_path, "a.cfg", tmp_path / "out" / "a"),
                 self._plain(tmp_path, "p", (0.1, 0.2, 0.3, 0.4, 0.5)),
                 self._write(tmp_path, "bad.cfg", tmp_path / "out" / "bad",
                             system="maxwell-bloch-5d", gains=(9.0,) * 5),
                 self._write(tmp_path, "b.cfg", tmp_path / "out" / "b", epsilon=0.02)]
        assert main(["sweep", *map(str, paths)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error in maxwell-bloch-5d run: maxwell-bloch-5d takes no "
                                "gains; feedback gains need maxwell-bloch-5d-controlled\n")
        assert f"{paths[2]}: failed (exit 2)" in captured.out
        assert captured.out.count(": ok") == 3
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a", "b", "p"]
        for name, path in zip("apb", [paths[0], paths[1], paths[3]]):
            assert main(["simulate", "--config", str(path),
                         "--output", str(tmp_path / "lone" / name)]) == 0
            assert tree_bytes(tmp_path / "out" / name) == tree_bytes(tmp_path / "lone" / name)
        capsys.readouterr()

    def test_failures_rerun_survivors_as_one_batch(self, tmp_path, capsys, monkeypatch):
        sizes = []
        integrate = solver.integrate

        def recording_integrate(sysdef, cfg):
            sizes.append(len(cfg.x0))
            return integrate(sysdef, cfg)

        monkeypatch.setattr(solver, "integrate", recording_integrate)
        paths = [self._write(tmp_path, "a.cfg", tmp_path / "out" / "a", **E2_RUN),
                 self._write(tmp_path, "late.cfg", tmp_path / "out" / "late",
                             **{**E2_RUN, "gains": (29.7,) * 5}),
                 self._write(tmp_path, "b.cfg", tmp_path / "out" / "b", **E2_RUN),
                 self._write(tmp_path, "early.cfg", tmp_path / "out" / "early",
                             **{**E2_RUN, "x0": (1e200,) * 5, "epsilon": None}),
                 self._write(tmp_path, "c.cfg", tmp_path / "out" / "c", **E2_RUN)]
        assert main(["sweep", *map(str, paths)]) == 3
        captured = capsys.readouterr()
        # the step-0 failure surfaces first, but failures print in member order
        assert sizes == [5, 4, 3]
        assert captured.err == (
            "numerical failure in maxwell-bloch-5d-controlled run at step 442: "
            "non-finite predictor field value at step 442 (t = 4.42)\n"
            "numerical failure in maxwell-bloch-5d-controlled run at step 0: "
            "non-finite initial field value at step 0 (t = 0)\n"
        )
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a", "b", "c"]

    def _run_sweep(self, argv, root, capsys):
        """Exit code, stdout, stderr and written files of one sweep; the
        files are removed so the next run starts from the same tree."""
        code = main(argv)
        captured = capsys.readouterr()
        written = tree_bytes(root)
        shutil.rmtree(root)
        return code, captured.out, captured.err, written

    def _force_writers(self, monkeypatch, cpus):
        """Fork a writer per CPU (cpus > 1) for any batch, however small."""
        monkeypatch.setattr(artifacts, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(artifacts, "FORK_MIN_WRITE_S", 0.0)

    @pytest.mark.parametrize("case", ["numerical", "unresolved"])
    def test_writers_do_not_change_the_output(self, tmp_path, capsys, monkeypatch, case):
        # two e2 members per batch, so several batches pass through the writers
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * 8 * 5 * 601)
        paths = [self._write(tmp_path, f"e{i}.cfg", tmp_path / "out" / f"e{i}",
                             **{**E2_RUN, "epsilon": 0.01 * (i + 1)}) for i in range(5)]
        paths.append(self._plain(tmp_path, "p", (0.1, 0.2, 0.3, 0.4, 0.5)))
        if case == "numerical":
            paths.insert(2, self._write(tmp_path, "bad.cfg", tmp_path / "out" / "bad",
                                        **{**E2_RUN, "gains": (29.7,) * 5}))
            paths.append(self._plain(tmp_path, "q", (1e200, 1.0, 1.0, 1.0, 1e200)))
        else:
            paths.insert(3, self._write(tmp_path, "bad.cfg", tmp_path / "out" / "bad",
                                        x0=(1.0, 2.0), epsilon=None))
        runs = {}
        for cpus, jobs in ((1, "2"), (2, "1"), (3, "2")):
            self._force_writers(monkeypatch, cpus)
            runs[cpus] = self._run_sweep(["sweep", *map(str, paths), "--jobs", jobs],
                                         tmp_path / "out", capsys)
        code, out, err, written = runs[1]
        assert code == (3 if case == "numerical" else 2)
        assert out.count(": ok") == 6 and len(written) == 6 * 7
        assert err.count("\n") == (2 if case == "numerical" else 1)
        assert runs[2] == runs[1] and runs[3] == runs[1]

    def test_blocked_output_path_fails_like_inline_writing(self, tmp_path, capsys, monkeypatch):
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             epsilon=0.01 * (i + 1)) for i in range(4)]
        results, trees = [], []
        for cpus in (1, 2):
            self._force_writers(monkeypatch, cpus)
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "c1").write_text("a file where a directory must go")
            assert main(["sweep", *map(str, paths)]) == 2
            captured = capsys.readouterr()
            results.append((captured.out, captured.err))
            trees.append(tree_bytes(tmp_path / "out"))
            shutil.rmtree(tmp_path / "out")
        assert results[0] == results[1]
        out, err = results[0]
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "c1" in err and out.count("wrote ") == 1
        # inline writing stops at c1; the writers may also have finished the
        # later members of its batch, but never leave a member half written
        inline, pooled = trees
        assert sorted(inline) == ["c0/" + name for name in sorted(
            ["trajectory.csv", "report.kv", *(f"fig{i}.svg" for i in range(1, 6))])] + ["c1"]
        assert {k: v for k, v in pooled.items() if k in inline} == inline
        extra = [k for k in pooled if k not in inline]
        for member in ("c2", "c3"):
            assert sum(k.startswith(member + "/") for k in extra) in (0, 7)
        assert all(k.startswith(("c2/", "c3/")) for k in extra)

    def test_failing_integration_reaps_running_writers(self, tmp_path, capsys, monkeypatch):
        # the first batch's writers are running when the second batch fails;
        # the autouse fixture then finds no child left
        self._force_writers(monkeypatch, 2)
        monkeypatch.setattr(solver, "BATCH_BYTES", 2 * 8 * 5 * 31)
        calls = []
        integrate = solver.integrate

        def failing_integrate(sysdef, cfg):
            calls.append(len(cfg.x0))
            if len(calls) == 2:
                raise RuntimeError("second batch fails")
            return integrate(sysdef, cfg)

        monkeypatch.setattr(solver, "integrate", failing_integrate)
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             epsilon=0.01 * (i + 1)) for i in range(4)]
        with pytest.raises(RuntimeError, match="second batch fails"):
            main(["sweep", *map(str, paths)])
        assert calls == [2, 2]
        capsys.readouterr()

    def test_killed_writer_costs_only_time(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(artifacts, "write_artifacts", write_unless_forked)
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             epsilon=0.01 * (i + 1)) for i in range(3)]
        runs = {}
        for cpus in (1, 2):
            self._force_writers(monkeypatch, cpus)
            runs[cpus] = self._run_sweep(["sweep", *map(str, paths)], tmp_path / "out", capsys)
            assert (tmp_path / "killed").exists() == (cpus > 1)
        code, out, err, written = runs[1]
        assert code == 0 and err == "" and len(written) == 3 * 7
        assert runs[2] == runs[1]

    def test_failed_second_fork_writes_the_batch_inline(self, tmp_path, capsys, monkeypatch):
        # the first writer forks and the second cannot: the first is reaped
        # and the sweep writes the whole batch itself (every writer.pid holds
        # this process's id), with the bytes of a sweep that writes inline
        monkeypatch.setattr(artifacts, "write_artifacts", write_artifacts_and_pid)
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             epsilon=0.01 * (i + 1)) for i in range(3)]
        argv = ["sweep", *map(str, paths)]
        self._force_writers(monkeypatch, 1)
        inline = self._run_sweep(argv, tmp_path / "out", capsys)
        assert inline[0] == 0 and len(inline[3]) == 3 * 8
        made, fork = [], os.fork

        def second_fork_fails():
            made.append(1)
            if len(made) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        self._force_writers(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert self._run_sweep(argv, tmp_path / "out", capsys) == inline
        assert made == [1, 1]
        with pytest.raises(ChildProcessError):  # the first writer was reaped
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == 0

    def _forking_sweep(self, tmp_path, then):
        """A child interpreter's argv that runs, on two CPUs, a sweep that
        forks writers by the default rule (16 configs at N=2000, 0.36 s of
        inline writing), then the statement `then` (`code` is its exit code)."""
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             steps=2000, epsilon=0.001 * (i + 1)) for i in range(16)]
        return [sys.executable, "-c",
                "import sys; from fracdyn import artifacts, cli; "
                "artifacts._cpu_count = lambda: 2; "
                f"code = cli.main({['sweep', *map(str, paths)]!r}); {then}"]

    def test_killed_sweep_leaves_no_writer_running(self, tmp_path):
        proc = subprocess.Popen(self._forking_sweep(tmp_path, "sys.exit(code)"), env=CHILD_ENV,
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            first = tmp_path / "out" / "c0" / "trajectory.csv"
            deadline = time.monotonic() + 60.0
            while not first.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.002)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait() == -signal.SIGKILL
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("the killed sweep's writers still run after 10 s")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_forked_writers_load_no_executor(self, tmp_path):
        then = ("sys.exit(code or 10 * any(name in sys.modules for name in "
                "('multiprocessing', 'concurrent.futures')))")
        proc = subprocess.run(self._forking_sweep(tmp_path, then), env=CHILD_ENV,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("cpus, configs, min_write_s, forked", [
        (1, 3, 0.0, False), (2, 3, 0.0, True), (2, 1, 0.0, True), (2, 3, None, False),
    ])
    def test_writers_are_forked_only_when_they_pay(self, tmp_path, capsys, monkeypatch,
                                                   cpus, configs, min_write_s, forked):
        monkeypatch.setattr(artifacts, "write_artifacts", write_artifacts_and_pid)
        monkeypatch.setattr(artifacts, "_cpu_count", lambda: cpus)
        if min_write_s is not None:
            monkeypatch.setattr(artifacts, "FORK_MIN_WRITE_S", min_write_s)
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}")
                 for i in range(configs)]
        assert main(["sweep", *map(str, paths), "--jobs", "2"]) == 0
        capsys.readouterr()
        pids = {int((tmp_path / "out" / f"c{i}" / "writer.pid").read_text())
                for i in range(configs)}
        assert (os.getpid() not in pids) == forked

    def test_writers_print_nothing(self, tmp_path):
        # stdout is a pipe, so the marker is still buffered when the writers
        # fork; neither it nor anything else may reach the streams from them
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}")
                 for i in range(3)]
        argv = ["sweep", *map(str, paths)]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from fracdyn import artifacts, cli; artifacts._cpu_count = lambda: 2; "
             "artifacts.FORK_MIN_WRITE_S = 0.0; print('#marker#'); "
             f"sys.exit(cli.main({argv!r}))"],
            env=CHILD_ENV, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("#marker#") == 1 and proc.stdout.count(": ok") == 3
        assert proc.stderr == ""

    def test_rerun_gives_identical_bytes(self, tmp_path, capsys):
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}",
                             epsilon=0.01 * (i + 1)) for i in range(3)]
        paths.append(self._plain(tmp_path, "p", (0.1, 0.2, 0.3, 0.4, 0.5)))
        assert main(["sweep", *map(str, paths)]) == 0
        first = tree_bytes(tmp_path / "out")
        assert len(first) == 4 * 7
        assert main(["sweep", *map(str, paths)]) == 0
        assert tree_bytes(tmp_path / "out") == first
        capsys.readouterr()


def kill_if_forked(function):
    """`function`, but a forked writer that calls it is killed first, as by
    the kernel's OOM killer."""
    def stand_in(*args):
        if os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return function(*args)
    return stand_in


def fail_if_forked(function):
    """`function`, but in a forked writer it raises, so the writer exits 1."""
    def stand_in(*args):
        if os.getpid() != TEST_PID:
            raise OSError("no space left for the writer")
        return function(*args)
    return stand_in


def controlled_run(steps, output):
    return ["simulate", "--system", "maxwell-bloch-5d-controlled", "--alpha", "0.65",
            "--h", "0.01", "--steps", str(steps), "--epsilon", "0.01",
            "--gains", "1.2", "1.2", "0.5", "0.5", "0", "--target-e1", repr(SQRT3_4), "0.25",
            "--output", str(output)]


def decay_run(steps, output):
    return ["simulate", "--system", "linear-decay", "--alpha", "0.8", "--h", "0.001",
            "--steps", str(steps), "--x0", "1.5", "--output", str(output)]


EARLY_BLOW_UP = ["simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.65", "--h", "0.01",
                 "--steps", "3000", "--x0", *["1e150"] * 5]
# fails at step 442, after the writer has had the rows of the first segment
LATE_BLOW_UP = ["simulate", "--system", "maxwell-bloch-5d-controlled", "--alpha", "0.65",
                "--h", "0.01", "--steps", "600", "--epsilon", "0.01",
                "--gains", *["29.7"] * 5, "--target-e2", "-0.125"]


class TestStreamedCsv:
    """A lone simulate whose writing pays for a fork streams its
    trajectory.csv to a forked writer; every outcome equals inline writing."""

    @pytest.fixture(autouse=True)
    def no_writer_left_running(self):
        yield
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == 0  # collections cover every object again

    @pytest.fixture
    def forks(self, monkeypatch):
        """The forks a run makes, recorded in the returned list."""
        made, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
        monkeypatch.setattr(artifacts, "_cpu_count", lambda: 2)
        return made

    def _run(self, argv, root, capsys, monkeypatch, stream):
        """Exit code, stdout, stderr and files under `root` of a simulate
        with its CSV streamed or written inline; `root` is then removed."""
        monkeypatch.setattr(artifacts, "FORK_MIN_WRITE_S", 0.0 if stream else math.inf)
        code = main(argv)
        captured = capsys.readouterr()
        written = tree_bytes(root) if root.exists() else None
        shutil.rmtree(root, ignore_errors=True)
        return code, captured.out, captured.err, written

    def _both(self, argv, root, capsys, monkeypatch, forks):
        inline = self._run(argv, root, capsys, monkeypatch, stream=False)
        assert forks == []
        streamed = self._run(argv, root, capsys, monkeypatch, stream=True)
        return inline, streamed

    @pytest.mark.parametrize("run", [controlled_run, decay_run], ids=["controlled", "decay"])
    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 511, 3000])
    def test_streaming_does_not_change_the_output(self, tmp_path, capsys, monkeypatch, forks,
                                                  run, steps):
        # the writer, not the inline fallback, must write the CSV: only the
        # inline run may call write_artifacts
        calls, write_artifacts = [], artifacts.write_artifacts
        monkeypatch.setattr(artifacts, "write_artifacts",
                            lambda *args: calls.append(1) or write_artifacts(*args))
        inline, streamed = self._both(run(steps, tmp_path / "out" / "run"), tmp_path / "out",
                                      capsys, monkeypatch, forks)
        assert forks == [1] and calls == [1]
        assert streamed == inline
        code, _, err, written = inline
        assert code == 0 and err == ""
        assert sorted(written) == sorted(f"run/{name}" for name in (
            "trajectory.csv", "report.kv",
            *(f"fig{i}.svg" for i in range(1, 6 if run is controlled_run else 2))))
        assert written["run/trajectory.csv"].count(b"\n") == steps + 2

    @pytest.mark.parametrize("argv, step", [(EARLY_BLOW_UP, 1), (LATE_BLOW_UP, 442)],
                             ids=["early", "late"])
    def test_blow_up_leaves_no_output(self, tmp_path, capsys, monkeypatch, forks, argv, step):
        inline, streamed = self._both(argv + ["--output", str(tmp_path / "out" / "run")],
                                      tmp_path / "out", capsys, monkeypatch, forks)
        assert forks == [1]
        assert streamed == inline
        code, out, err, written = inline
        assert (code, out, written) == (3, "", None)
        assert err.startswith(f"numerical failure at step {step}: ")

    def test_failure_after_the_last_row_leaves_no_output(self, tmp_path, capsys, monkeypatch,
                                                          forks):
        # the writer has every row but no commit: it writes nothing
        integrate = solver.integrate

        def failing_integrate(sysdef, cfg, on_rows):
            integrate(sysdef, cfg, on_rows=on_rows)
            raise RuntimeError("failed after the run")

        monkeypatch.setattr(solver, "integrate", failing_integrate)
        monkeypatch.setattr(artifacts, "FORK_MIN_WRITE_S", 0.0)
        with pytest.raises(RuntimeError, match="failed after the run"):
            main(controlled_run(600, tmp_path / "out"))
        assert forks == [1]
        assert not (tmp_path / "out").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("name, stand_in", [
        ("_copy_spool", kill_if_forked),   # killed once it has every row
        ("_read_blocks", kill_if_forked),  # killed before it reads: the pipe breaks
        ("_copy_spool", fail_if_forked),   # exits 1
    ], ids=["killed-at-the-end", "killed-at-the-start", "exits-1"])
    def test_failed_writer_costs_only_time(self, tmp_path, capsys, monkeypatch, forks,
                                           name, stand_in):
        argv = controlled_run(3000, tmp_path / "out" / "run")
        inline = self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=False)
        monkeypatch.setattr(artifacts, name, stand_in(getattr(artifacts, name)))
        assert self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=True) == inline
        assert forks == [1]

    def test_sends_wait_for_a_slow_writer(self, tmp_path, capsys, monkeypatch, forks):
        # the writer sleeps before it reads, and N=3000 sends 120 KB of rows,
        # more than a default 64 KiB pipe holds: the last sends must wait
        read_blocks, sending = artifacts._read_blocks, []

        def late_read_blocks(*args):
            time.sleep(0.2)
            return read_blocks(*args)

        send = artifacts.CsvWriter.send

        def timed_send(writer, data):
            start = time.perf_counter()
            send(writer, data)
            sending.append(time.perf_counter() - start)

        argv = controlled_run(3000, tmp_path / "out" / "run")
        inline = self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=False)
        monkeypatch.setattr(artifacts, "_read_blocks", late_read_blocks)
        monkeypatch.setattr(artifacts.CsvWriter, "send", timed_send)
        streamed = self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=True)
        assert forks == [1]
        assert streamed == inline and inline[0] == 0
        assert sum(sending) > 0.1

    def test_failed_fork_writes_inline(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(artifacts, "_cpu_count", lambda: 2)
        argv = controlled_run(600, tmp_path / "out" / "run")
        inline = self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=False)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self._run(argv, tmp_path / "out", capsys, monkeypatch, stream=True) == inline

    def test_blocked_output_path_fails_like_inline_writing(self, tmp_path, capsys, monkeypatch,
                                                           forks):
        runs = []
        for stream in (False, True):
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "run").write_text("a file where a directory must go")
            runs.append(self._run(controlled_run(600, tmp_path / "out" / "run"),
                                  tmp_path / "out", capsys, monkeypatch, stream))
        assert forks == [1]
        assert runs[1] == runs[0]
        code, out, err, written = runs[0]
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "run" in err
        assert written == {"run": b"a file where a directory must go"}

    def test_unwritable_csv_fails_like_inline_writing(self, tmp_path, capsys, monkeypatch,
                                                      forks):
        # trajectory.csv is a directory: the writer fails, and so does the
        # inline fallback, at the CSV and before the plots
        runs = []
        for stream in (False, True):
            (tmp_path / "out" / "run" / "trajectory.csv").mkdir(parents=True)
            runs.append(self._run(controlled_run(600, tmp_path / "out" / "run"),
                                  tmp_path / "out", capsys, monkeypatch, stream))
        assert forks == [1]
        assert runs[1] == runs[0]
        code, out, err, written = runs[0]
        assert (code, out, written) == (2, "", {})
        assert err.startswith("error: ") and err.count("\n") == 1 and "trajectory.csv" in err

    @pytest.mark.parametrize("argv, code", [(controlled_run(600, "out"), 0),
                                            (LATE_BLOW_UP + ["--output", "out"], 3)],
                             ids=["written", "blow-up"])
    def test_writer_prints_nothing(self, tmp_path, argv, code):
        # stdout is a pipe, so the marker is still buffered when the writer
        # forks; neither it nor anything else may reach the streams from it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys; from fracdyn import artifacts, cli; "
             "artifacts._cpu_count = lambda: 2; artifacts.FORK_MIN_WRITE_S = 0.0; fork = os.fork; "
             "os.fork = lambda: print('#fork#', file=sys.stderr) or fork(); "
             f"print('#marker#'); sys.exit(cli.main({argv!r}))"],
            cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.count("#marker#") == 1
        assert proc.stdout.count("final state:") == (code == 0)
        assert proc.stderr.startswith("#fork#\n") and proc.stderr.count("\n") == 1 + (code != 0)

    def test_killed_run_leaves_no_writer_running(self, tmp_path):
        # a default-rule run (N=20000) killed while it integrates: the writer
        # reads the end of the pipe before a commit and exits without writing
        argv = controlled_run(20000, tmp_path / "out")
        script = "\n".join([
            "import os, sys",
            "from fracdyn import artifacts, cli",
            "artifacts._cpu_count = lambda: 2",
            "fork = os.fork",
            "def announced_fork():",
            "    pid = fork()",
            "    if pid:",
            "        print('forked', flush=True)",
            "    return pid",
            "os.fork = announced_fork",
            f"sys.exit(cli.main({argv!r}))",
        ])
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=CHILD_ENV, stdout=subprocess.PIPE, start_new_session=True)
        try:
            assert proc.stdout.readline() == b"forked\n"
            proc.send_signal(signal.SIGKILL)
            assert proc.wait() == -signal.SIGKILL
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("the killed run's writer still runs after 10 s")
            assert not (tmp_path / "out").exists()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()
            proc.wait()


class TestEntryPoints:
    def test_help_and_usage_codes(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["mpmath", "multiprocessing"])
    def test_cli_import_leaves_module_unloaded(self, module):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fracdyn.cli; sys.exit({module!r} in sys.modules)"],
            env=CHILD_ENV,
        )
        assert proc.returncode == 0

    def test_convergence_run_leaves_mpmath_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from fracdyn.cli import main; "
             "code = main(['convergence', '--alpha', '0.65', '--h-list', '0.1', '0.05', "
             "'0.025', '--tau', '20']); sys.exit(code or 10 * ('mpmath' in sys.modules))"],
            env=CHILD_ENV, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the child writes, as after `| head -3`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fracdyn.cli", "stability", "maxwell-bloch-5d",
                 "--alpha", "0.65", "--e2", "-0.125"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv, plain", [
        (["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--e2", "-1.25e-1"],
         ["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--e2", "-0.125"]),
        (["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--point", "0", "0", "0", "0",
          "-1.25E-1"],
         ["stability", "maxwell-bloch-5d", "--alpha", "0.65", "--point", "0", "0", "0", "0",
          "-0.125"]),
        (["gains-check", "--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "-5e-1", "-0e0"],
         ["gains-check", "--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "-0.5", "-0"]),
        (["simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.65", "--h", "0.01",
          "--steps", "20", "--epsilon", "-1e-3", "--target-e2", "-1.25e-1"],
         ["simulate", "--system", "maxwell-bloch-5d", "--alpha", "0.65", "--h", "0.01",
          "--steps", "20", "--epsilon", "-0.001", "--target-e2", "-0.125"]),
        (["simulate", "--system", "zero-field-5d", "--alpha", "0.5", "--h", "0.1",
          "--steps", "5", "--x0", "1", "-2e0", "3", "0", "-5.e-1"],
         ["simulate", "--system", "zero-field-5d", "--alpha", "0.5", "--h", "0.1",
          "--steps", "5", "--x0", "1", "-2", "3", "0", "-0.5"]),
        (["convergence", "--alpha", "0.65", "--h-list", "0.1", "0.05", "0.025",
          "--x0", "-1e-3"],
         ["convergence", "--alpha", "0.65", "--h-list", "0.1", "0.05", "0.025",
          "--x0", "-0.001"]),
    ])
    def test_negative_numbers_in_exponent_form(self, tmp_path, capsys, argv, plain):
        # argparse itself reads -0.125 but not -1.25e-1 as a number; the
        # plain stability run is the one tests/golden/stdout/stability-e2.text holds
        out = tmp_path / "out"
        runs = []
        for args in (argv, plain):
            output = ["--output", str(out)] if args[0] == "simulate" else []
            code = main(args + output)
            files = sorted((path.name, path.read_bytes()) for path in out.glob("*"))
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].err == ""

    @pytest.mark.parametrize("argv, code", [
        (["gains-check", "--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "0.5", "0",
          "--alpha", "0.65"], 0),
        (["stability", "maxwell-bloch-5d-controlled", "--alpha", "0.65", "--e2", "-0.125"], 2),
        (EARLY_BLOW_UP + ["--output", "out"], 3),
    ])
    def test_module_entry_matches_main(self, tmp_path, monkeypatch, argv, code):
        # `python -m fracdyn.cli` exits through run, which freezes the collector
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == code
        proc = subprocess.run([sys.executable, "-m", "fracdyn.cli", *argv], cwd=tmp_path,
                              env=CHILD_ENV, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.getvalue().encode(), err.getvalue().encode())
        assert not (tmp_path / "out").exists()

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracdyn.cli", "stability", "maxwell-bloch-5d",
             "--alpha", "0.65", "--e2", "-0.125"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "Unstable" in proc.stdout


# 0, the smallest subnormal and values whose squares or products overflow,
# or any float, NaN and infinities too; gains are mostly of the first kind,
# which the commands accept, and m, n and alpha of either sign
EDGES = [0.0, 5e-324, 0.125, 1.0, 1e154, 1e200, 1.7e308]
GAINS = st.sampled_from(EDGES) | st.floats()
NUMBERS = st.sampled_from(EDGES).flatmap(lambda v: st.sampled_from([v, -v])) | st.floats()
# a non-finite number as the output prints it: inf, -inf, nan, or +infi
NON_FINITE = re.compile(r"(?<![a-z])[-+]?(inf|nan)", re.IGNORECASE)


@st.composite
def classifying_argvs(draw):
    """argv of a `stability` or `gains-check` run at either family, in either format."""
    def number(strategy=NUMBERS):
        return repr(draw(strategy))

    point = (["--e1", number(), number()] if draw(st.booleans()) else ["--e2", number()])
    gains = ["--gains"] + [number(GAINS) for _ in range(5)]
    fmt = ["--format", draw(st.sampled_from(["text", "kv"]))]
    if draw(st.booleans()):
        alpha = ["--alpha", number()] if draw(st.booleans()) else []
        return ["gains-check", *gains, *point, *alpha, *fmt]
    return ["stability", "maxwell-bloch-5d", "--alpha", number(), *point,
            *(gains if draw(st.booleans()) else []), *fmt]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(classifying_argvs())
def test_exit_code_contract_of_the_classifying_commands(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # no exception escapes
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), out.getvalue()


SYSTEM_DIMS = {"maxwell-bloch-5d": 5, "maxwell-bloch-5d-controlled": 5,
               "zero-field-5d": 5, "linear-decay": 1}


@st.composite
def simulate_argvs(draw):
    """argv of a short `simulate` of any registered system, without --output:
    mostly one it accepts, with x0, epsilon and targets on the edges of the
    float range too, and now and then any number or option."""
    def number(strategy=NUMBERS):
        return repr(draw(strategy))

    def mostly(strategy):
        return number(strategy if draw(st.integers(0, 9)) else NUMBERS)

    def now_and_then():
        return not draw(st.integers(0, 9))

    system = draw(st.sampled_from(sorted(SYSTEM_DIMS)))
    controlled = system == "maxwell-bloch-5d-controlled"
    argv = ["simulate", "--system", system,
            "--alpha", mostly(st.sampled_from([0.3, 0.65, 1.0])
                              | st.floats(0.0, 1.0, exclude_min=True)),
            "--h", mostly(st.sampled_from([0.01, 0.1, 1.0]) | st.floats(1e-3, 10.0)),
            "--steps", str(draw(st.integers(1, 16)))]
    targeted = controlled or (SYSTEM_DIMS[system] == 5 and draw(st.booleans()))
    if targeted != now_and_then():
        if draw(st.booleans()):
            argv += ["--target-e1", number(), number()]
        else:
            argv += ["--target-e2", number()]
    if targeted and draw(st.booleans()):
        argv += ["--epsilon", number()]
    else:
        dim = 2 if now_and_then() else SYSTEM_DIMS[system]
        argv += ["--x0", *(number() for _ in range(dim))]
    if controlled != now_and_then():
        argv += ["--gains", *(number(GAINS) for _ in range(5))]
    return argv


@settings(max_examples=50, deadline=None, derandomize=True)
@given(simulate_argvs())
def test_exit_code_contract_of_simulate(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "run"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(solver, "integrate", wraps=solver.integrate) as integrate:
            code = main(argv + ["--output", str(output)])  # no exception escapes
        assert code in (0, 2, 3), err.getvalue()
        # bad input never reaches the integrator
        assert code != 2 or not integrate.called, err.getvalue()
        if code == 0:
            # the last line names the output path, which is not a number
            printed = out.getvalue().splitlines()[:-1]
            assert not any(map(NON_FINITE.search, printed)), out.getvalue()
        if code == 3:
            assert not output.exists()


EDGE_NUMBERS = (st.sampled_from(EDGES).flatmap(lambda v: st.sampled_from([v, -v]))
                | st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def convergence_argvs(draw):
    """argv of a `convergence` study of at most 16 steps per step size: mostly
    halving step sizes that divide a short horizon, and now and then an
    edge number as horizon, step size, t_min, alpha or x0, or another system."""
    def now_and_then():
        return not draw(st.integers(0, 9))

    tau = draw(EDGE_NUMBERS if now_and_then() else st.sampled_from([0.25, 1.0, 2.0]))
    first = draw(st.sampled_from([1, 2, 4]))
    hs = [tau / (first * 2 ** i) for i in range(draw(st.integers(1, 3)))]
    if now_and_then():
        hs[draw(st.integers(0, len(hs) - 1))] = draw(EDGE_NUMBERS)
    alpha = draw(NUMBERS if now_and_then() else st.sampled_from([0.3, 0.65, 1.0])
                 | st.floats(0.0, 1.0, exclude_min=True))
    argv = ["convergence", "--alpha", repr(alpha), "--h-list", *map(repr, hs),
            "--tau", repr(tau),
            "--x0", repr(draw(NUMBERS if now_and_then() else st.floats(-10.0, 10.0)))]
    if draw(st.booleans()):
        t_min = draw(EDGE_NUMBERS if now_and_then() else st.sampled_from([0.0, tau / 2]))
        argv += ["--t-min", repr(t_min)]
    if now_and_then():
        argv += ["--system", draw(st.sampled_from(sorted(SYSTEM_DIMS)))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(convergence_argvs())
def test_exit_code_contract_of_convergence(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(solver, "integrate", wraps=solver.integrate) as integrate:
        code = main(argv)  # no exception escapes
    assert code in (0, 2, 3), err.getvalue()
    # bad input never reaches the integrator
    assert code != 2 or not integrate.called, err.getvalue()
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), out.getvalue()


def config_text(argv, output_dir):
    """The config file that runs `simulate_argvs`' argv `argv` into `output_dir`."""
    options, name = {}, None
    for token in argv[1:]:
        if token.startswith("--"):
            name = token[2:]
            options[name] = []
        else:
            options[name].append(token)
    lines = ["[run]", *(f"{key} = {options[key][0]}" for key in ("system", "alpha", "h", "steps")),
             f"output_dir = {output_dir}", "[initial]"]
    lines += [f"{key} = {' '.join(options[key])}" for key in ("x0", "epsilon") if key in options]
    lines.append("[control]")
    if "gains" in options:
        lines.append("gains = " + " ".join(options["gains"]))
    for family in ("e1", "e2"):
        if f"target-{family}" in options:
            lines.append(f"target = {family} " + " ".join(options[f"target-{family}"]))
    return "\n".join(lines) + "\n"


def steady_argv(steps, epsilon):
    """argv of the reference run at `steps` steps and offset `epsilon`."""
    argv = [*REFERENCE_RUN]
    argv[argv.index("--steps") + 1] = str(steps)
    argv[argv.index("--epsilon") + 1] = repr(epsilon)
    return argv


STEADY_ARGVS = st.builds(steady_argv, st.integers(1, 16), st.floats(-0.1, 0.1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(simulate_argvs() | STEADY_ARGVS, min_size=1, max_size=3), st.integers(0, 9))
def test_exit_code_contract_of_sweep(runs, apart):
    # every config writes to one directory when apart == 0, which fails the
    # sweep; the other configs' lines, printed whatever the exit code, hold
    # no non-finite number either
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"c{i}.cfg" for i in range(len(runs))]
        for i, (path, argv) in enumerate(zip(paths, runs)):
            path.write_text(config_text(argv, Path(tmp) / "out" / f"c{i if apart else 0}"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", *map(str, paths)])  # no exception escapes
        assert code in (0, 2, 3), err.getvalue()
        # the printed paths are not numbers, whatever the directory's name
        printed = out.getvalue().replace(tmp, "")
        assert not NON_FINITE.search(printed), printed
