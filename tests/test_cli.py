import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdyn
from fracdyn import cli
from fracdyn.cli import main
from fracdyn.expconfig import ExperimentConfig, serialize_config
from fracdyn.solver import Trajectory

SQRT3_4 = math.sqrt(3.0) / 4.0

# child interpreters import the same fracdyn as this test session
SRC = str(Path(fracdyn.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

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

        monkeypatch.setenv("FRACDYN_SEED", "31")
        out2 = tmp_path / "cfgrun2"
        assert main(["simulate", "--config", str(path), "--output", str(out2)]) == 0
        assert read_kv(out2 / "report.kv")["seed"] == "31"

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

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_step_size_is_bad_input(self, tmp_path, capsys, h):
        assert main(["simulate", "--system", "linear-decay", "--alpha", "0.5",
                     "--h", h, "--steps", "5", "--x0", "1",
                     "--output", str(tmp_path)]) == 2
        assert "step size" in capsys.readouterr().err

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
        cli._write_csv(path, Trajectory(times, states))
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

    @pytest.mark.parametrize("argv", [
        ["--gains", "1", "1", "1", "1", "1", "--e2", "nan"],
        ["--gains", "1", "1", "1", "1", "inf", "--e2", "-0.125"],
        ["--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "nan", "0"],
        ["--gains", "1.2", "1.2", "nan", "0.5", "0", "--e1", "0.5", "0"],
        ["--gains", "nan", "1.2", "0.5", "0.5", "0", "--e1", "0.5", "0"],
        ["--gains", "-1", "1", "0.5", "0.5", "0", "--e1", "0.5", "0"],
        # m^2 and the discriminant overflow
        ["--gains", "1", "1", "1", "1", "1", "--e1", "1e200", "1e200"],
    ])
    def test_non_finite_input_is_bad_input(self, capsys, argv):
        assert main(["gains-check"] + argv) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_family_selection_required(self, capsys):
        assert main(["gains-check", "--gains", "1", "1", "1", "1", "1"]) == 2
        assert main(["gains-check", "--gains", "1", "1", "1", "1", "1",
                     "--e1", "1", "0", "--e2", "0.5"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err


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

    @pytest.mark.parametrize("option", [
        ["--tau", "nan"], ["--tau", "inf"], ["--t-min", "nan"], ["--h-list", "0"],
        # tau / h overflows to inf
        ["--h-list", "1e-10", "--tau", "1e300"],
        # no grid point lies in the window t >= t_min
        ["--h-list", "0.1", "0.05", "0.025", "--tau", "1", "--t-min", "5"],
    ])
    def test_non_finite_or_zero_input_is_bad_input(self, capsys, option):
        assert main(["convergence", "--alpha", "0.65", "--h-list", "0.1"] + option) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_long_horizon_oracle(self, capsys):
        # the oracle's argument reaches -(200 ** 0.65) = -31.3
        assert main(["convergence", "--alpha", "0.65", "--h-list", "1", "0.5", "0.25",
                     "--tau", "200", "--x0", "1"]) == 0
        assert "fitted order:" in capsys.readouterr().out

    def test_system_without_oracle_rejected(self, capsys):
        assert main(["convergence", "--system", "maxwell-bloch-5d",
                     "--alpha", "0.65", "--h-list", "0.04", "0.02", "0.01"]) == 2
        capsys.readouterr()


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


cli_write_artifacts = cli._write_artifacts


def write_artifacts_and_pid(cfg, traj, target):
    """cli._write_artifacts, then the writing process's id in writer.pid."""
    cli_write_artifacts(cfg, traj, target)
    (Path(cfg.output_dir) / "writer.pid").write_text(str(os.getpid()))


def write_nothing_and_die(cfg, traj, target):
    """A writer killed before it writes, as by the kernel's OOM killer."""
    os._exit(1)


E2_RUN = dict(target=("e2", -0.125), gains=(0.25, 1.5, 0.25, 2.0 / 3.0, 1.0), steps=600)


class TestSweep:
    GAINS = (1.2, 1.2, 0.5, 0.5, 0.0)

    @pytest.fixture(autouse=True)
    def no_writer_left_running(self):
        yield
        assert multiprocessing.active_children() == []

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
        integrate = cli.integrate

        def recording_integrate(sysdef, cfg):
            calls.append((sysdef.name, len(cfg.x0), cfg.n_steps))
            return integrate(sysdef, cfg)

        monkeypatch.setattr(cli, "integrate", recording_integrate)
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
        monkeypatch.setattr(cli, "SWEEP_BATCH_BYTES", 2 * 8 * 5 * 31)
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

    def test_failures_rerun_survivors_as_one_batch(self, tmp_path, capsys, monkeypatch):
        sizes = []
        integrate = cli.integrate

        def recording_integrate(sysdef, cfg):
            sizes.append(len(cfg.x0))
            return integrate(sysdef, cfg)

        monkeypatch.setattr(cli, "integrate", recording_integrate)
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
        """Fork a writer per CPU (cpus > 1) for any sweep, however small."""
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "POOL_MIN_WRITE_S", 0.0)

    @pytest.mark.parametrize("case", ["numerical", "unresolved"])
    def test_writers_do_not_change_the_output(self, tmp_path, capsys, monkeypatch, case):
        # two e2 members per batch, so several batches pass through the writers
        monkeypatch.setattr(cli, "SWEEP_BATCH_BYTES", 2 * 8 * 5 * 601)
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

    def test_dead_writer_fails_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_write_artifacts", write_nothing_and_die)
        self._force_writers(monkeypatch, 2)
        paths = [self._write(tmp_path, f"c{i}.cfg", tmp_path / "out" / f"c{i}")
                 for i in range(3)]
        assert main(["sweep", *map(str, paths)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: a writer process died while writing "
                                f"{tmp_path / 'out' / 'c0'}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("cpus, configs, min_write_s, forked", [
        (1, 3, 0.0, False), (2, 3, 0.0, True), (2, 1, 0.0, False), (2, 3, None, False),
    ])
    def test_writers_are_forked_only_when_they_pay(self, tmp_path, capsys, monkeypatch,
                                                   cpus, configs, min_write_s, forked):
        monkeypatch.setattr(cli, "_write_artifacts", write_artifacts_and_pid)
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        if min_write_s is not None:
            monkeypatch.setattr(cli, "POOL_MIN_WRITE_S", min_write_s)
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
             "import sys; from fracdyn import cli; cli._cpu_count = lambda: 2; "
             f"cli.POOL_MIN_WRITE_S = 0.0; print('#marker#'); sys.exit(cli.main({argv!r}))"],
            env=CHILD_ENV, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("#marker#") == 1 and proc.stdout.count(": ok") == 3
        assert proc.stderr == ""

    @pytest.mark.parametrize("batch, write_s, cpus, writers", [
        (16, 1.4, 2, 2), (16, 1.4, 1, 1), (3, 1.4, 16, 3), (1, 1.4, 2, 1), (0, 0.0, 2, 1),
        (16, 0.19, 2, 1), (1000000, 1e9, 2, 2), (5, 1e9, 64, 5),
    ])
    def test_writer_count_is_clamped(self, batch, write_s, cpus, writers):
        assert cli._writer_count(batch, write_s, cpus) == writers

    @pytest.mark.parametrize("configs, steps, pool", [(64, 2000, True), (16, 2000, True),
                                                      (48, 300, True), (2, 30, False),
                                                      (4, 2000, False), (12, 1000, False)])
    def test_write_estimate_picks_the_pool_for_large_sweeps(self, configs, steps, pool):
        cfg = ExperimentConfig(system="maxwell-bloch-5d", alpha=0.65, h=0.01, steps=steps,
                               x0=(0.1,) * 5)
        members = [cli._Member(i, cfg, np.full(5, 0.1), None) for i in range(configs)]
        assert (cli._inline_write_seconds(members) >= cli.POOL_MIN_WRITE_S) == pool

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

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracdyn.cli", "stability", "maxwell-bloch-5d",
             "--alpha", "0.65", "--e2", "-0.125"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "Unstable" in proc.stdout
