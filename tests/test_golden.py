"""Golden `report.kv` files of the README simulate runs.

The files under tests/golden/ were written by the integrator as it stood
before its history sums were reordered; a rerun must reproduce every
number in them to 1e-13 relative (absolute below 1).
"""

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
