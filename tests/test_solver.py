import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import maxbloch, registry
from fracdyn.numkit import mittag_leffler
from fracdyn.solver import (
    _BLOCK,
    MAX_STEPS,
    PREDICTOR_AS_PRINTED,
    NumericalError,
    SolverConfig,
    Trajectory,
    convergence_order,
    corrector_weight,
    corrector_weights,
    integrate,
    predictor_weight,
    predictor_weights,
    step,
)
from fracdyn.systems import SystemDef

ALPHAS = (0.05, 0.3, 0.65, 1.0)

LINEAR = registry.build_system(registry.LINEAR_DECAY)


def constant_system(c):
    c = np.asarray(c, dtype=float)
    return SystemDef(
        name="constant",
        dim=c.size,
        field=lambda x: c.copy(),
        jacobian=lambda x: np.zeros((c.size, c.size)),
    )


def linear_matrix_system(a):
    a = np.asarray(a, dtype=float)
    return SystemDef(
        name="linear-matrix",
        dim=a.shape[0],
        field=lambda x: a @ x,
        jacobian=lambda x: a.copy(),
    )


def classical_pece(field, x0, h, n_steps):
    """Explicit-Euler predictor with trapezoidal corrector, one-step memory."""
    x = np.asarray(x0, dtype=float)
    out = [x.copy()]
    for _ in range(n_steps):
        f = field(x)
        predicted = x + h * f
        x = x + 0.5 * h * (f + field(predicted))
        out.append(x.copy())
    return np.array(out)


class TestWeights:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_predictor_edge_cases(self, alpha):
        assert predictor_weight(0, 0, alpha) == 1.0
        for n in (1, 4, 17):
            assert predictor_weight(n, n, alpha) == 1.0

    def test_predictor_sample_value(self):
        assert abs(predictor_weight(0, 1, 0.5) - (math.sqrt(2.0) - 1.0)) <= 1e-15

    def test_alpha_one_predictor_is_flat(self):
        assert all(predictor_weight(j, 9, 1.0) == 1.0 for j in range(10))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_corrector_edge_cases(self, alpha):
        assert abs(corrector_weight(0, 0, alpha) - alpha) <= 1e-15
        for n in (1, 3, 12):
            expected = 2.0 ** (alpha + 1.0) - 2.0
            assert abs(corrector_weight(n, n, alpha) - expected) <= 1e-15

    def test_corrector_sample_value_two_operand_orders(self):
        value = corrector_weight(1, 2, 0.65)
        direct = 3.0 ** 1.65 + 1.0 ** 1.65 - 2.0 * 2.0 ** 1.65
        reordered = (1.0 ** 1.65 + 3.0 ** 1.65) - (2.0 ** 1.65 + 2.0 ** 1.65)
        assert abs(value - direct) <= 1e-13
        assert abs(value - reordered) <= 1e-13

    def test_index_guards(self):
        with pytest.raises(IndexError):
            predictor_weight(3, 2, 0.5)
        with pytest.raises(IndexError):
            corrector_weight(-1, 2, 0.5)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [0, 1, 5, 50])
    def test_vector_matches_scalar(self, alpha, n):
        bw = predictor_weights(n, alpha)
        aw = corrector_weights(n, alpha)
        for j in range(n + 1):
            assert abs(bw[j] - predictor_weight(j, n, alpha)) <= 1e-13
            # the second difference cancels operands of size (n-j+2)^(alpha+1)
            tol = 1e-15 * (1.0 + float(n - j + 2) ** (alpha + 1.0))
            assert abs(aw[j] - corrector_weight(j, n, alpha)) <= max(tol, 1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10000])
    def test_positivity(self, alpha, n):
        bw = predictor_weights(n, alpha)
        aw = corrector_weights(n, alpha)
        assert (bw > 0.0).all()
        assert (aw[1:] > 0.0).all()
        assert aw[0] > 0.0

    @pytest.mark.parametrize("alpha", (0.3, 0.65, 1.0))
    @pytest.mark.parametrize("n", [0, 1, 10, 500, 10000])
    def test_predictor_sum_telescopes(self, alpha, n):
        total = float(np.sum(predictor_weights(n, alpha)))
        assert abs(total - (n + 1) ** alpha) <= 1e-10


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0, h=0.1, n_steps=10, x0=[1.0])
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, h=0.0, n_steps=10, x0=[1.0])
        for h in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SolverConfig(alpha=0.5, h=h, n_steps=10, x0=[1.0])
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, h=0.1, n_steps=0, x0=[1.0])
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, h=0.1, n_steps=MAX_STEPS + 1, x0=[1.0])
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, h=0.1, n_steps=10, x0=[1.0], predictor_anchor="bogus")

    def test_horizon(self):
        cfg = SolverConfig(alpha=0.5, h=0.01, n_steps=500, x0=[1.0])
        assert cfg.horizon == pytest.approx(5.0)


class TestIntegrate:
    def test_single_step_hand_values(self):
        cfg = SolverConfig(alpha=1.0, h=0.1, n_steps=1, x0=[1.0])
        traj = integrate(LINEAR, cfg, keep_predictor=True)
        assert abs(traj.predictor_states[0, 0] - 0.9) <= 1e-15
        assert abs(traj.states[1, 0] - 0.905) <= 1e-15

    def test_zero_field_is_constant(self):
        sys = registry.build_system(registry.ZERO_FIELD)
        x0 = np.array([0.3, -1.0, 2.0, 0.0, 5.5])
        cfg = SolverConfig(alpha=0.65, h=0.05, n_steps=40, x0=x0)
        traj = integrate(sys, cfg)
        assert np.array_equal(traj.states, np.tile(x0, (41, 1)))

    def test_constant_field_exact_at_alpha_one(self):
        c = np.array([0.3, -0.7])
        cfg = SolverConfig(alpha=1.0, h=0.01, n_steps=100, x0=[1.0, 2.0])
        traj = integrate(constant_system(c), cfg)
        expected = np.array([1.0, 2.0]) + np.outer(traj.times, c)
        assert np.max(np.abs(traj.states - expected)) <= 1e-12

    def test_grid_and_initial_state(self):
        cfg = SolverConfig(alpha=0.65, h=0.02, n_steps=25, x0=[0.1])
        traj = integrate(LINEAR, cfg)
        assert np.array_equal(traj.times, np.arange(26, dtype=float) * 0.02)
        assert traj.states[0, 0] == 0.1

    def test_exponential_decay_accuracy(self):
        cfg = SolverConfig(alpha=1.0, h=0.01, n_steps=100, x0=[1.0])
        traj = integrate(LINEAR, cfg)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-4

    def test_classical_pece_equivalence_at_alpha_one(self):
        a = np.array([[0.0, 1.0], [-1.0, -0.3]])
        sys = linear_matrix_system(a)
        cfg = SolverConfig(alpha=1.0, h=0.05, n_steps=200, x0=[1.0, 0.0])
        traj = integrate(sys, cfg)
        reference = classical_pece(sys.field, [1.0, 0.0], 0.05, 200)
        assert np.max(np.abs(traj.states - reference)) <= 1e-12

    def test_fractional_linear_accuracy(self):
        alpha = 0.65
        cfg = SolverConfig(alpha=alpha, h=0.01, n_steps=100, x0=[1.0])
        traj = integrate(LINEAR, cfg)
        exact = np.array([mittag_leffler(alpha, -(t ** alpha)) for t in traj.times])
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-3

    def test_fractional_error_constant_from_half_step(self):
        # err(h) <= C * h^(1+alpha) with C calibrated on the half-step run
        alpha = 0.65

        def max_error(h, n_steps):
            cfg = SolverConfig(alpha=alpha, h=h, n_steps=n_steps, x0=[1.0])
            traj = integrate(LINEAR, cfg)
            exact = np.array([mittag_leffler(alpha, -(t ** alpha)) for t in traj.times])
            return float(np.max(np.abs(traj.states[:, 0] - exact)))

        h = 0.01
        c = max_error(h / 2.0, 200) / (h / 2.0) ** (1.0 + alpha)
        assert max_error(h, 100) <= c * h ** (1.0 + alpha)

    def test_unanchored_predictor_variant(self):
        cfg = SolverConfig(alpha=1.0, h=0.1, n_steps=1, x0=[1.0],
                           predictor_anchor=PREDICTOR_AS_PRINTED)
        traj = integrate(LINEAR, cfg, keep_predictor=True)
        # without the x0 anchor the first predictor is just the weighted sum
        assert abs(traj.predictor_states[0, 0] - (-0.1)) <= 1e-15

    @pytest.mark.parametrize("n_steps", [120, 3000])
    def test_determinism(self, n_steps):
        target = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)
        sys = maxbloch.controlled_system([1.2, 1.2, 0.5, 0.5, 0.0], target)
        cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=n_steps, x0=target + 0.01)
        first = integrate(sys, cfg)
        second = integrate(sys, cfg)
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.times, second.times)

    def test_conserved_quantities_at_alpha_one(self):
        sys = maxbloch.system()
        cfg = SolverConfig(alpha=1.0, h=1e-3, n_steps=1000,
                           x0=[0.1, 0.2, 0.3, 0.1, 0.5])
        traj = integrate(sys, cfg)
        s = traj.states
        c1 = s[:, 2] ** 2 + s[:, 3] ** 2 + s[:, 4] ** 2
        c2 = s[:, 1] * s[:, 2] - s[:, 0] * s[:, 3]
        assert np.max(np.abs(c1 - c1[0])) <= 1e-4
        assert np.max(np.abs(c2 - c2[0])) <= 1e-4

    def test_non_finite_field_aborts_with_step_index(self):
        sys = maxbloch.system()
        cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=50, x0=[1e150] * 5)
        with pytest.raises(NumericalError) as err:
            integrate(sys, cfg)
        assert err.value.step_index >= 1

        bad = SystemDef(name="nan", dim=1, field=lambda x: np.array([np.nan]),
                        jacobian=lambda x: np.zeros((1, 1)))
        with pytest.raises(NumericalError) as err:
            integrate(bad, SolverConfig(alpha=0.5, h=0.1, n_steps=5, x0=[1.0]))
        assert err.value.step_index == 0
        assert err.value.rows is None

    def test_batch_failure_names_the_rows_of_its_lone_failures(self):
        sys = maxbloch.system()
        x0 = [[0.1] * 5, [1e150] * 5, [0.2] * 5, [1e150, 1.0, 1.0, 1.0, 1e150]]
        cfg = dict(alpha=0.65, h=0.01, n_steps=50)
        with pytest.raises(NumericalError) as batch:
            integrate(sys, SolverConfig(x0=x0, **cfg))
        assert batch.value.rows == (1, 3)
        for row in (1, 3):
            with pytest.raises(NumericalError) as alone:
                integrate(sys, SolverConfig(x0=x0[row], **cfg))
            assert str(alone.value) == str(batch.value)
            assert alone.value.step_index == batch.value.step_index


def direct_abm(sys, cfg):
    """The scheme of the module docstring as a plain double sum.

    Step n takes the tails of the weight vectors of an N-step run, so every
    weight has the bits the solver uses; it returns the states and the
    predictor states.
    """
    alpha, h, N = cfg.alpha, cfg.h, cfg.n_steps
    x0 = np.asarray(cfg.x0, dtype=float)
    cp = h ** alpha / math.gamma(alpha + 1.0)
    cc = h ** alpha / math.gamma(alpha + 2.0)
    b = predictor_weights(N, alpha)  # b[N - n + j] = b[j, n+1]
    a = corrector_weights(N, alpha)  # a[N - n + j] = a[j, n+1] for j >= 1
    steps = np.arange(N, dtype=float)
    a0 = np.power(steps, alpha + 1.0) - (steps - alpha) * np.power(steps + 1.0, alpha)
    x = np.empty((N + 1, x0.size))
    xp = np.empty((N, x0.size))
    F = np.empty((N + 1, x0.size))
    x[0] = x0
    F[0] = sys.field(x0)
    for n in range(N):
        xp[n] = x0 + cp * (b[N - n :] @ F[: n + 1])
        acc = a0[n] * F[0] + a[N - n + 1 :] @ F[1 : n + 1] + sys.field(xp[n])
        x[n + 1] = x0 + cc * acc
        F[n + 1] = sys.field(x[n + 1])
    return x, xp


CONTROLLED_E1 = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)
CONTROLLED_E2 = maxbloch.e2(-0.125)
# (system, x0) of the controlled runs the history sums are checked on
CONTROLLED_RUNS = (
    (maxbloch.controlled_system([1.2, 1.2, 0.5, 0.5, 0.0], CONTROLLED_E1), CONTROLLED_E1 + 0.01),
    (maxbloch.controlled_system([0.25, 1.5, 0.25, 2.0 / 3.0, 1.0], CONTROLLED_E2),
     CONTROLLED_E2 + 0.01),
)
# inside one block, its edges, the first far-field tiles, and a run whose
# last tiles are clipped to the steps that exist
ORACLE_STEPS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 4 * _BLOCK + 1, 3000)


def assert_matches_direct_sum(sys, cfg):
    states, preds = direct_abm(sys, cfg)
    traj = integrate(sys, cfg, keep_predictor=True)
    for got, expected in ((traj.states, states), (traj.predictor_states, preds)):
        bad = np.abs(got - expected) > 1e-13 * np.maximum(1.0, np.abs(expected))
        assert not bad.any(), f"{sys.name} from {cfg.x0}, N={cfg.n_steps}: {np.argwhere(bad)[:3]}"


class TestKernelAgainstDirectSum:
    @pytest.mark.parametrize("alpha", (0.3, 0.65, 1.0))
    @pytest.mark.parametrize("model", ["controlled", "linear-decay"])
    def test_integrate_matches_direct_sum(self, model, alpha):
        runs = CONTROLLED_RUNS if model == "controlled" else ((LINEAR, [1.0]),)
        for sys, x0 in runs:
            for n_steps in ORACLE_STEPS:
                cfg = SolverConfig(alpha=alpha, h=0.01, n_steps=n_steps, x0=x0)
                assert_matches_direct_sum(sys, cfg)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(1, 3000), st.floats(0.05, 1.0))
    def test_any_length_and_order(self, n_steps, alpha):
        assert_matches_direct_sum(LINEAR, SolverConfig(alpha=alpha, h=0.01,
                                                       n_steps=n_steps, x0=[1.0]))


class TestStep:
    def test_matches_integrate_exactly(self):
        target = maxbloch.e2(-0.125)
        sys = maxbloch.controlled_system([0.25, 1.5, 0.25, 2.0 / 3.0, 1.0], target)
        # one state and a (2, 5) batch of them
        for x0 in (target + 0.01, target + [[0.01], [-0.02]]):
            cfg = SolverConfig(alpha=0.65, h=0.02, n_steps=4 * _BLOCK + 2, x0=x0)
            traj = integrate(sys, cfg, keep_predictor=True)
            for n in (0, 5, 19, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 1, 4 * _BLOCK + 1):
                prefix = Trajectory(times=traj.times[: n + 1], states=traj.states[: n + 1])
                xp, xc = step(sys, cfg, prefix, n)
                assert xc.shape == np.shape(x0)
                assert np.array_equal(xp, traj.predictor_states[n])
                assert np.array_equal(xc, traj.states[n + 1])

    def test_history_guards(self):
        cfg = SolverConfig(alpha=0.65, h=0.1, n_steps=5, x0=[1.0])
        history = Trajectory(times=np.zeros(1), states=np.array([[1.0]]))
        with pytest.raises(ValueError):
            step(LINEAR, cfg, history, 1)


class TestConvergenceOrder:
    def test_classical_order_two(self):
        oracle = lambda t: math.exp(-t)
        rep = convergence_order(LINEAR, 1.0, oracle, [0.04, 0.02, 0.01], 1.0, [1.0])
        assert not rep.degenerate
        assert 1.8 <= rep.slope <= 2.2

    def test_fractional_order_away_from_origin(self):
        alpha = 0.65
        oracle = lambda t: mittag_leffler(alpha, -(t ** alpha))
        rep = convergence_order(LINEAR, alpha, oracle, [0.02, 0.01, 0.005], 1.0,
                                [1.0], t_min=0.1)
        assert rep.slope >= 1.4

    def test_zero_field_is_degenerate(self):
        sys = registry.build_system(registry.ZERO_FIELD)
        oracle = lambda t: np.zeros(5)
        rep = convergence_order(sys, 0.65, oracle, [0.04, 0.02, 0.01], 1.0, np.zeros(5))
        assert rep.degenerate
        assert rep.slope is None
        assert max(rep.max_errors) == 0.0

    def test_validation(self):
        oracle = lambda t: math.exp(-t)
        with pytest.raises(ValueError):
            convergence_order(LINEAR, 1.0, oracle, [0.04, 0.02], 1.0, [1.0])
        with pytest.raises(ValueError):
            convergence_order(LINEAR, 1.0, oracle, [0.04, 0.03, 0.02], 1.0, [1.0])
        with pytest.raises(ValueError, match="over 1000000 steps"):
            convergence_order(LINEAR, 1.0, oracle, [1e-10, 5e-11, 2.5e-11], 1e300, [1.0])
        with pytest.raises(ValueError, match="no grid point"):
            convergence_order(LINEAR, 1.0, oracle, [0.1, 0.05, 0.025], 1.0, [1.0], t_min=5.0)

    @pytest.mark.parametrize("tau, t_min", [(math.nan, 0.0), (math.inf, 0.0),
                                            (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_horizon_rejected(self, tau, t_min):
        oracle = lambda t: math.exp(-t)
        with pytest.raises(ValueError, match="finite"):
            convergence_order(LINEAR, 1.0, oracle, [0.04, 0.02, 0.01], tau, [1.0],
                              t_min=t_min)
