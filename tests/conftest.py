import os
from pathlib import Path

import numpy as np
import pytest

import fracdyn

# child interpreters import the same fracdyn as this test session
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(fracdyn.__file__).resolve().parents[1]),
                  os.environ.get("PYTHONPATH")])))


def seeded_rng(default_seed):
    """RNG for sampled checks; FRACDYN_SEED overrides the per-test default."""
    return np.random.default_rng(int(os.environ.get("FRACDYN_SEED", default_seed)))


@pytest.fixture
def rng():
    return seeded_rng(20260810)


def bits(values):
    """Bit patterns of a float64 array, with every NaN as one pattern.

    Unlike ==, this tells -0.0 from 0.0. The sign and payload of a NaN
    result are left open by IEEE 754 and differ between numpy's scalar and
    array loops, and CPython's float addition and product pick the other
    operand's NaN once the interpreter has specialized them, so a NaN only
    has to be a NaN.
    """
    a = np.array(values, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.view(np.uint64).tolist()


def tree_bytes(root):
    """Every file under `root`, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_multiset_close(actual, expected, tol):
    """Match two complex multisets greedily within tol."""
    actual = [complex(v) for v in actual]
    expected = [complex(v) for v in expected]
    assert len(actual) == len(expected)
    remaining = list(expected)
    for value in actual:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - value))
        assert abs(remaining[best] - value) <= tol, (
            f"{value} has no partner within {tol}; closest {remaining[best]}"
        )
        remaining.pop(best)
