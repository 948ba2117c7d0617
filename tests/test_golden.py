"""Golden outputs of the README command lines.

`report.kv` of the simulate runs: the files under tests/golden/simulate-*
were written by the integrator as it stood before its history sums were
reordered; a rerun must reproduce every number in them to 1e-13 relative
(absolute below 1).

stdout of `stability` and `gains-check`: the files under
tests/golden/stdout/ hold the exact bytes the command printed, and a rerun
must reproduce them byte for byte. `python tests/test_golden.py` rewrites
them from the `fracdyn` found on PYTHONPATH.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from fracdyn.cli import main

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
    }
    for name, argv in gains_cases.items():
        runs[f"{name}.text"], runs[f"{name}.kv"] = _gains_check(*argv)
    return runs


STDOUT_RUNS = _stdout_runs()


def read_kv(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


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
        tol = 1e-13 * max(1.0, abs(want_value))
        assert abs(float(got[key]) - want_value) <= tol, (key, got[key], want)


@pytest.mark.parametrize("name", sorted(STDOUT_RUNS))
def test_stdout_matches_golden(name, capsys):
    assert main(STDOUT_RUNS[name]) == 0
    expected = (GOLDEN / "stdout" / name).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def _regenerate():
    outdir = GOLDEN / "stdout"
    outdir.mkdir(exist_ok=True)
    for name, argv in sorted(STDOUT_RUNS.items()):
        done = subprocess.run([sys.executable, "-m", "fracdyn.cli", *argv],
                              capture_output=True, check=True)
        (outdir / name).write_bytes(done.stdout)


if __name__ == "__main__":
    _regenerate()
