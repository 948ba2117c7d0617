"""Sign scan of the e1 cubic's roots against 80-digit mpmath roots.

Draws `points` seeded e1 points: gains k1..k5 uniform in [0.1, 3],
|m| = 10^U(10, 154.1) of either sign, and n = 0 or U(-1, 1)·|m| with equal
odds. Each point goes through `stability.cubic_from_gains`; a point it
refuses with DomainError counts as refused. For the others the roots of the
float64 cubic from `numkit.poly_roots`, the ones `gains-check --e1` prints,
are compared with the roots of the same cubic computed by mpmath at 80
digits. A point has a wrong sign when, sorted by real part, some computed
root's real part has another sign than the reference root's.

    PYTHONPATH=src python tests/e1_sign_scan.py [--points 3000] [--seed 7]

prints the counts and the largest error of a real part, for whichever
`fracdyn` is on PYTHONPATH.
"""

import argparse

import mpmath
import numpy as np

from fracdyn import numkit, stability


def draw(points, seed):
    """The scan's points as (k3, k4, k5, m, n) tuples, the order
    `cubic_from_gains` takes them in."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(points):
        gains = rng.uniform(0.1, 3.0, 5)
        m = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(10.0, 154.1)
        n = 0.0 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) * abs(m)
        out.append((*gains[2:].tolist(), float(m), float(n)))
    return out


def reference_roots(cubic):
    with mpmath.workdps(80):
        roots = mpmath.polyroots([1, cubic.a1, cubic.a2, cubic.a3], maxsteps=200, extraprec=2000)
        return sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))


def scan(points=3000, seed=7):
    counts = {"points": points, "refused": 0, "accepted": 0, "wrong_sign": 0}
    worst = 0.0
    for k3, k4, k5, m, n in draw(points, seed):
        try:
            cubic = stability.cubic_from_gains(k3, k4, k5, m, n)
        except numkit.DomainError:
            counts["refused"] += 1
            continue
        counts["accepted"] += 1
        got = numkit.poly_roots(cubic.polynomial())
        want = reference_roots(cubic)
        if any(np.sign(g.real) != np.sign(w.real) for g, w in zip(got, want)):
            counts["wrong_sign"] += 1
        worst = max(worst, max(abs(g.real - w.real) for g, w in zip(got, want)))
    counts["max_real_part_error"] = worst
    return counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for key, value in scan(args.points, args.seed).items():
        print(f"{key}={value}")
