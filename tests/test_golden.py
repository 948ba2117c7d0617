"""Golden outputs of the README command lines.

`report.kv` of the simulate runs: the files under tests/golden/simulate-*
were written by the integrator as it stood before its history sums were
reordered; a rerun must reproduce every number in them to 1e-13 relative
(absolute below 1).

stdout of `stability` and `gains-check`: the files under
tests/golden/stdout/ hold the exact bytes the command printed, and a rerun
must reproduce them byte for byte. `python tests/test_golden.py` rewrites
them from the `fracdyn` found on PYTHONPATH.

Byte identity holds for one numpy build on one CPU type. Another OpenBLAS
kernel or numpy SIMD level may move the last bits, so runs in those
environments are held to the same 1e-13 as the golden reports.
"""

import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV, tree_bytes
from fracdyn.cli import main
from fracdyn.expconfig import ExperimentConfig, serialize_config

GOLDEN = Path(__file__).parent / "golden"

CONTROLLED_RUN = [
    "simulate", "--system", "maxwell-bloch-5d-controlled",
    "--alpha", "0.65", "--h", "0.01", "--steps", "500", "--epsilon", "0.01",
]

RUNS = {
    "simulate-e1": CONTROLLED_RUN + [
        "--gains", "1.2", "1.2", "0.5", "0.5", "0",
        "--target-e1", "0.4330127018922193", "0.25",
    ],
    "simulate-e2": CONTROLLED_RUN + [
        "--target-e2", "-0.125",
        "--gains", "0.25", "1.5", "0.25", "0.6666666666666666", "1",
    ],
}

E2_GAINS = ["--gains", "0.25", "1.5", "0.25", "0.6666666666666666", "1"]
STABILITY = ["stability", "maxwell-bloch-5d", "--alpha", "0.65"]


def _gains_check(*argv):
    """Text and kv forms of one gains-check command line."""
    base = ["gains-check", *argv]
    return base, base + ["--format", "kv"]


def _stdout_runs():
    runs = {}
    cases = {
        "stability-e2": [*STABILITY, "--e2", "-0.125"],
        "stability-e2-gains": [*STABILITY, "--e2", "-0.125", *E2_GAINS],
        "stability-e1-alpha1": ["stability", "maxwell-bloch-5d", "--alpha", "1.0",
                                "--e1", "1", "0"],
    }
    for name, argv in cases.items():
        runs[f"{name}.text"] = argv
        runs[f"{name}.kv"] = argv + ["--format", "kv"]
    gains_cases = {
        # README commands, with and without --alpha
        "gains-check-e2": [*E2_GAINS, "--e2", "-0.125"],
        "gains-check-e2-alpha": [*E2_GAINS, "--e2", "-0.125", "--alpha", "0.65"],
        "gains-check-e1": ["--gains", "1.2", "1.2", "0.5", "0.5", "0", "--e1", "0.5", "0"],
        "gains-check-e1-alpha": ["--gains", "1.2", "1.2", "0.5", "0.5", "0",
                                 "--e1", "0.5", "0", "--alpha", "0.65"],
        # catalogued conditions disagree with the eigenvalues
        "gains-check-e2-disagreement": ["--gains", "1", "2", "1", "2", "3", "--e2", "0"],
        # one discriminant exactly zero: no catalogued sign case
        "gains-check-e2-boundary": ["--gains", "1", "2", "1", "1", "1", "--e2", "0"],
        # a zero eigenvalue: unstable at every order
        "gains-check-e2-zero-eig": ["--gains", "1", "1", "1", "1", "1", "--e2", "1",
                                    "--alpha", "0.5"],
        # positive discriminant: Routh-Hurwitz covers every order below 1
        "gains-check-e1-positive": ["--gains", "1", "1", "3", "3", "0", "--e1", "1", "0",
                                    "--alpha", "0.9"],
        # a3 underflows to 0: NotDecided, and a root at 0
        "gains-check-e1-underflow": ["--gains", "1.2", "1.2", "0.5", "0.5", "0",
                                     "--e1", "1e-200", "0", "--alpha", "0.65"],
        # D(P) = 0 exactly: NotDecided, and a double root
        "gains-check-e1-zero-discriminant": ["--gains", "1", "1", "2", "2", "0",
                                             "--e1", "1", "0", "--alpha", "0.65"],
        # D(P) overflows: NotDecided, and the polished pair -0.25 +- 1e103i
        "gains-check-e1-huge": ["--gains", "1.2", "1.2", "0.5", "0.5", "0",
                                "--e1", "1e103", "0", "--alpha", "0.65"],
    }
    for name, argv in gains_cases.items():
        runs[f"{name}.text"], runs[f"{name}.kv"] = _gains_check(*argv)
    return runs


STDOUT_RUNS = _stdout_runs()


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def within_golden_tolerance(got, want):
    """1e-13 relative, absolute below 1."""
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path, capsys):
    assert main(RUNS[name] + ["--output", str(tmp_path)]) == 0
    capsys.readouterr()
    expected = read_kv(GOLDEN / name / "report.kv")
    got = read_kv(tmp_path / "report.kv")
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        try:
            want_value = float(want)
        except ValueError:
            assert got[key] == want, key
            continue
        assert within_golden_tolerance(float(got[key]), want_value), (key, got[key], want)


@pytest.mark.parametrize("name", sorted(STDOUT_RUNS))
def test_stdout_matches_golden(name, capsys):
    assert main(STDOUT_RUNS[name]) == 0
    expected = (GOLDEN / "stdout" / name).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def _dispatch_targets():
    """The SIMD targets beyond its baseline that numpy dispatches to here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


# the README run and, batched beside it in one sweep, the e2 run
SWEPT = {
    "e1": ExperimentConfig(system="maxwell-bloch-5d-controlled", alpha=0.65, h=0.01,
                           steps=500, epsilon=0.01, gains=(1.2, 1.2, 0.5, 0.5, 0.0),
                           target=("e1", 0.4330127018922193, 0.25)),
    "e2": ExperimentConfig(system="maxwell-bloch-5d-controlled", alpha=0.65, h=0.01,
                           steps=500, epsilon=0.01,
                           gains=(0.25, 1.5, 0.25, 0.6666666666666666, 1.0),
                           target=("e2", -0.125)),
}


def _token_agrees(got, want):
    try:
        return within_golden_tolerance(float(got), float(want))
    except ValueError:
        return got == want


def _numbers_agree(got, want):
    """Two files with the same words, and numbers within the golden tolerance."""
    got, want = (re.split(r"[,=\s]+", text.decode()) for text in (got, want))
    return len(got) == len(want) and all(map(_token_agrees, got, want))


def test_bytes_repeat_and_numbers_agree_across_kernels(tmp_path):
    # the variables reach only the children, whose fracdyn reads none itself
    targets = _dispatch_targets()
    environments = {
        "default": {},
        "OPENBLAS_CORETYPE=Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        f"NPY_DISABLE_CPU_FEATURES={' '.join(targets)!r}"
        + ("" if targets else " (numpy reports no dispatch target: nothing to disable)"):
            {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
    }
    lone = {}
    for index, (label, variables) in enumerate(environments.items()):
        root = tmp_path / str(index)
        root.mkdir()
        for name, cfg in SWEPT.items():
            (root / f"{name}.cfg").write_text(serialize_config(
                dataclasses.replace(cfg, output_dir=str(root / "swept" / name))))
        argvs = [RUNS["simulate-e1"] + ["--output", str(root / run)] for run in ("a", "b")]
        argvs.append(["sweep", *(str(root / f"{name}.cfg") for name in SWEPT)])
        children = [subprocess.Popen([sys.executable, "-m", "fracdyn.cli", *argv],
                                     env=dict(CHILD_ENV, **variables),
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                    for argv in argvs]
        for child, argv in zip(children, argvs):
            _, err = child.communicate()
            assert child.returncode == 0, (label, argv, err)
        lone[label] = tree_bytes(root / "a")
        assert tree_bytes(root / "b") == lone[label], f"{label}: two runs differ"
        assert tree_bytes(root / "swept" / "e1") == lone[label], f"{label}: swept != lone"
    default = lone.pop("default")
    for label, files in lone.items():
        for name in ("trajectory.csv", "report.kv"):
            assert _numbers_agree(files[name], default[name]), f"{label}: {name}"


def _regenerate():
    """Rewrite the stdout goldens and print the name of each file whose bytes changed."""
    outdir = GOLDEN / "stdout"
    outdir.mkdir(exist_ok=True)
    for name, argv in sorted(STDOUT_RUNS.items()):
        done = subprocess.run([sys.executable, "-m", "fracdyn.cli", *argv],
                              capture_output=True, check=True)
        path = outdir / name
        if not path.exists() or path.read_bytes() != done.stdout:
            path.write_bytes(done.stdout)
            print(name)


if __name__ == "__main__":
    _regenerate()
