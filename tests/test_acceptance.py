"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come. Every tolerance and runtime limit is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import assert_multiset_close, seeded_rng
from fracdyn import maxbloch, numkit, registry
from fracdyn.cli import main
from fracdyn.numkit import mittag_leffler, poly_roots
from fracdyn.solver import SolverConfig, convergence_order, integrate
from fracdyn.stability import (
    RouthHurwitz,
    Verdict,
    classify_equilibrium,
    cubic_from_gains,
    e2_gain_condition,
    routh_hurwitz_cubic,
)
from oracles import controlled_jacobian, field_matrix_form

SQRT3_4 = math.sqrt(3.0) / 4.0


class _Criterion:
    """Collects named checks, prints one pass/fail line, enforces a time limit."""

    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.failures = []
        self.start = time.perf_counter()

    def check(self, label, ok):
        if not ok:
            self.failures.append(label)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        self.check(f"runtime {elapsed:.2f}s < {self.limit}s", elapsed < self.limit)
        status = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number:2d}] {status} ({elapsed:.2f}s) {self.description}")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_01_reference_e2_gain_configuration():
    crit = _Criterion(1, "reference gain set at (0,0,0,0,-1/8): exact deltas, "
                         "eigenvalues, stability at three orders", 1.0)
    k = (Fraction(1, 4), Fraction(3, 2), Fraction(1, 4), Fraction(2, 3), Fraction(1))
    rep = e2_gain_condition(k, Fraction(-1, 8))
    crit.check("delta1 == -1/2 exactly", rep.delta1 == Fraction(-1, 2))
    crit.check("delta2 == 7/36 exactly", rep.delta2 == Fraction(7, 36))
    # delta2 > 0, so the second pair is real: (-13 +- sqrt(7))/12
    golden = [
        -1.0,
        complex(-0.25, math.sqrt(2.0) / 4.0),
        complex(-0.25, -math.sqrt(2.0) / 4.0),
        (-13.0 + math.sqrt(7.0)) / 12.0,
        (-13.0 - math.sqrt(7.0)) / 12.0,
    ]
    try:
        assert_multiset_close(rep.eigenvalues, golden, 1e-12)
    except AssertionError:
        crit.check("closed-form eigenvalues within 1e-12 of golden", False)
    jac = controlled_jacobian(maxbloch.e2(-0.125), [float(v) for v in k])
    try:
        assert_multiset_close(numkit.eigenvalues(jac), golden, 1e-12)
    except AssertionError:
        crit.check("numeric eigenvalues within 1e-12 of golden", False)
    for alpha in (0.3, 0.65, 1.0):
        crit.check(f"asymptotically stable at alpha={alpha}",
                   rep.verdict(alpha) is Verdict.ASYMPTOTICALLY_STABLE)
    crit.finish()


def test_criterion_02_reference_e1_routh_hurwitz_configuration():
    crit = _Criterion(2, "cubic coefficients (1, 0.5, 0.125), discriminant -3/64, "
                         "roots, stability range (0, 2/3)", 1.0)
    cubic = cubic_from_gains(0.5, 0.5, 0.0, 0.5, 0.0)  # m^2 + n^2 = 0.25
    crit.check("coefficients exactly (1, 0.5, 0.125)",
               (cubic.a1, cubic.a2, cubic.a3) == (1.0, 0.5, 0.125))
    crit.check("discriminant within 1e-15 of -3/64",
               abs(cubic.discriminant - (-3.0 / 64.0)) <= 1e-15)
    roots = poly_roots(cubic.polynomial())
    golden = [-0.5, complex(-0.25, math.sqrt(3.0) / 4.0),
              complex(-0.25, -math.sqrt(3.0) / 4.0)]
    try:
        assert_multiset_close(roots, golden, 1e-9)
    except AssertionError:
        crit.check("roots within 1e-9 of golden", False)
    result = routh_hurwitz_cubic(cubic)
    crit.check("classification: stable for alpha in (0, 2/3)",
               result is RouthHurwitz.STABLE_BELOW_TWO_THIRDS
               and result.alpha_range == "(0, 2/3)")
    crit.finish()


def test_criterion_03_uncontrolled_instability_sweep():
    crit = _Criterion(3, "100 random uncontrolled equilibria unstable at three orders", 2.0)
    rng = seeded_rng(103)
    sys = maxbloch.system()
    points = []
    for _ in range(50):
        radius = math.sqrt(rng.uniform(0.01, 4.0))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        points.append(maxbloch.e1(radius * math.cos(theta), radius * math.sin(theta)))
    count = 0
    while count < 50:
        m = rng.uniform(-2.0, 2.0)
        if abs(m) < 1e-6:
            continue
        points.append(maxbloch.e2(m))
        count += 1
    ok = True
    for point in points:
        for alpha in (0.3, 0.65, 0.95):
            report = classify_equilibrium(sys, point, alpha)
            ok = ok and report.verdict is Verdict.UNSTABLE
    crit.check("all 100 points unstable at alpha in {0.3, 0.65, 0.95}", ok)
    crit.finish()


def test_criterion_04_matrix_form_equivalence():
    crit = _Criterion(4, "componentwise field equals bilinear matrix form on "
                         "1000 random states", 1.0)
    rng = seeded_rng(104)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, 5)
        gap = np.max(np.abs(maxbloch.field(x) - field_matrix_form(x)))
        worst = max(worst, float(gap))
    crit.check(f"worst componentwise gap {worst:.2e} <= 1e-14", worst <= 1e-14)
    crit.finish()


def test_criterion_05_classical_limit_accuracy_and_order():
    crit = _Criterion(5, "alpha=1 decay: endpoint error <= 1e-4 and order 2.0 +- 0.2", 1.0)
    linear = registry.build_system(registry.LINEAR_DECAY)
    cfg = SolverConfig(alpha=1.0, h=0.01, n_steps=100, x0=[1.0])
    traj = integrate(linear, cfg)
    err = abs(traj.states[-1, 0] - math.exp(-1.0))
    crit.check(f"|x[N] - exp(-1)| = {err:.2e} <= 1e-4", err <= 1e-4)
    rep = convergence_order(linear, 1.0, lambda t: math.exp(-t),
                            [0.04, 0.02, 0.01, 0.005], 1.0, [1.0])
    crit.check(f"fitted order {rep.slope:.3f} within 2.0 +- 0.2",
               abs(rep.slope - 2.0) <= 0.2)
    crit.finish()


def test_criterion_06_fractional_convergence_order():
    # The t = 0 initial layer decays like h^(2*alpha) = h^1.3 and owns the
    # full-grid maximum, so the fit runs on the fixed window t >= 0.1 where
    # the scheme shows its interior order (about 1 + alpha); the 1.4 bound
    # absorbs what is left of the layer's influence.
    crit = _Criterion(6, "alpha=0.65 decay vs Mittag-Leffler oracle: fitted "
                         "order >= 1.4 on t >= 0.1", 10.0)
    linear = registry.build_system(registry.LINEAR_DECAY)
    alpha = 0.65
    oracle = lambda t: mittag_leffler(alpha, -(t ** alpha))
    rep = convergence_order(linear, alpha, oracle,
                            [0.02, 0.01, 0.005, 0.0025], 1.0, [1.0], t_min=0.1)
    crit.check(f"fitted order {rep.slope:.3f} >= 1.4", rep.slope >= 1.4)
    crit.check("errors shrink monotonically",
               all(a > b for a, b in zip(rep.max_errors, rep.max_errors[1:])))
    crit.finish()


def test_criterion_07_controlled_run_and_artifacts(tmp_path):
    crit = _Criterion(7, "controlled run (alpha=0.65, h=0.01, N=500) approaches "
                         "its target; files deterministic", 5.0)
    target = maxbloch.e1(SQRT3_4, 0.25)
    sys = maxbloch.controlled_system([1.2, 1.2, 0.5, 0.5, 0.0], target)
    cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=500, x0=target + 0.01)
    traj = integrate(sys, cfg)
    dist = np.linalg.norm(traj.states - target, axis=1)
    crit.check("final distance below initial distance", dist[-1] < dist[0])
    crit.check("distance decreasing over the final 100 steps",
               bool(np.all(np.diff(dist[-100:]) < 0.0)))
    crit.check(f"final distance {dist[-1]:.4f} < 1e-2", dist[-1] < 1e-2)

    args = [
        "simulate", "--system", "maxwell-bloch-5d-controlled",
        "--alpha", "0.65", "--h", "0.01", "--steps", "500",
        "--epsilon", "0.01", "--gains", "1.2", "1.2", "0.5", "0.5", "0",
        "--target-e1", repr(SQRT3_4), "0.25",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    crit.check("first CLI run exits 0", main(args + ["--output", str(out_a)]) == 0)
    crit.check("second CLI run exits 0", main(args + ["--output", str(out_b)]) == 0)
    names = ["trajectory.csv"] + [f"fig{i}.svg" for i in range(1, 6)]
    crit.check("CSV and five figures emitted",
               all((out_a / name).exists() for name in names))
    crit.check("artifacts byte-identical across runs",
               all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names))
    crit.finish()


def test_criterion_08_conserved_quantities_at_alpha_one():
    crit = _Criterion(8, "alpha=1 run keeps both invariants within 1e-4", 2.0)
    cfg = SolverConfig(alpha=1.0, h=1e-3, n_steps=1000, x0=[0.1, 0.2, 0.3, 0.1, 0.5])
    traj = integrate(maxbloch.system(), cfg)
    s = traj.states
    c1 = s[:, 2] ** 2 + s[:, 3] ** 2 + s[:, 4] ** 2
    c2 = s[:, 1] * s[:, 2] - s[:, 0] * s[:, 3]
    drift1 = float(np.max(np.abs(c1 - c1[0])))
    drift2 = float(np.max(np.abs(c2 - c2[0])))
    crit.check(f"quadratic invariant drift {drift1:.2e} <= 1e-4", drift1 <= 1e-4)
    crit.check(f"bilinear invariant drift {drift2:.2e} <= 1e-4", drift2 <= 1e-4)
    crit.finish()


def test_criterion_09_lipschitz_bound_monte_carlo():
    crit = _Criterion(9, "500-sample Monte-Carlo Lipschitz check, zero violations", 1.0)
    rng = seeded_rng(109)
    delta = 1.0
    violations = 0
    for _ in range(10):
        center = rng.uniform(-2.0, 2.0, 5)
        bound = maxbloch.lipschitz_bound(center, delta)
        for _ in range(50):
            x = center + rng.uniform(-delta, delta, 5)
            y = center + rng.uniform(-delta, delta, 5)
            gap = float(np.linalg.norm(x - y))
            if gap == 0.0:
                continue
            ratio = float(np.linalg.norm(maxbloch.field(x) - maxbloch.field(y))) / gap
            if ratio > bound:
                violations += 1
    crit.check("zero violations in 500 samples", violations == 0)
    crit.finish()


def test_criterion_10_closed_form_versus_numeric_eigenvalues():
    crit = _Criterion(10, "closed-form gain eigenvalues match the Jacobian "
                          "spectrum on 200 random draws", 5.0)
    rng = seeded_rng(110)
    ok = True
    for _ in range(200):
        k = rng.uniform(0.05, 2.0, 5)
        m = rng.uniform(-1.0, 1.0)
        rep = e2_gain_condition(tuple(k), m)
        jac = controlled_jacobian(maxbloch.e2(m), k)
        try:
            assert_multiset_close(rep.eigenvalues, numkit.eigenvalues(jac), 1e-8)
        except AssertionError:
            ok = False
    crit.check("multisets match within 1e-8", ok)
    crit.finish()
