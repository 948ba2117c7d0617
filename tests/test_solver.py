import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import maxbloch, registry, solver
from fracdyn.numkit import DomainError, mittag_leffler
from fracdyn.solver import (
    _BLOCK,
    MAX_STEPS,
    NumericalError,
    SolverConfig,
    _Scheme,
    _fast_length,
    _first_corrector_weights,
    _lag_weights,
    convergence_order,
    integrate,
    integrate_batches,
)
from fracdyn.systems import SystemDef

from conftest import bits
from oracles import corrector_weight, predictor_weight

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

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [0, 1, 5, 50])
    def test_vector_matches_scalar(self, alpha, n):
        # lag k = n - j: b_k is b[j, n+1], ak_k is a[j, n+1] for j >= 1
        b, ak = _lag_weights(n + 1, alpha)
        for j in range(n + 1):
            assert abs(b[n - j] - predictor_weight(j, n, alpha)) <= 1e-13
            # the second difference cancels operands of size (n-j+2)^(alpha+1)
            tol = 1e-15 * (1.0 + float(n - j + 2) ** (alpha + 1.0))
            a = _first_corrector_weights(n, alpha) if j == 0 else ak[n - j]
            assert abs(a - corrector_weight(j, n, alpha)) <= max(tol, 1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10000])
    def test_positivity(self, alpha, n):
        b, ak = _lag_weights(n + 1, alpha)
        assert (b > 0.0).all()
        assert (ak[:n] > 0.0).all()
        assert _first_corrector_weights(n, alpha) > 0.0

    @pytest.mark.parametrize("alpha", (0.3, 0.65, 1.0))
    @pytest.mark.parametrize("n", [0, 1, 10, 500, 10000])
    def test_predictor_sum_telescopes(self, alpha, n):
        total = float(np.sum(_lag_weights(n + 1, alpha)[0]))
        assert abs(total - (n + 1) ** alpha) <= 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(alpha=0.5, h=10**400, n_steps=1, x0=[1.0]), "step size must be"),
    (lambda: convergence_order(LINEAR, 0.5, lambda t: 1.0, [10**400], 1.0, [1.0]),
     "step sizes must be"),
    (lambda: convergence_order(LINEAR, 0.5, lambda t: 1.0, [0.5], 10**400, [1.0]),
     "tau must be positive"),
], ids=["config-h", "study-h", "study-tau"])
def test_exact_inputs_beyond_the_float_range_are_bad_input(call, message):
    # DomainError, a ValueError, not the OverflowError of converting them to float
    with pytest.raises(DomainError, match=message):
        call()


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
        with pytest.raises(ValueError, match="horizon"):  # h * n_steps overflows
            SolverConfig(alpha=0.5, h=1e308, n_steps=10, x0=[1.0])

    def test_step_count_must_be_an_integer(self):
        for bad in (2.9, 3.0, "7", None):
            with pytest.raises(ValueError, match="step count must be an integer"):
                SolverConfig(alpha=0.5, h=0.1, n_steps=bad, x0=[1.0])
        cfg = SolverConfig(alpha=0.5, h=0.1, n_steps=np.int64(7), x0=[1.0])
        assert type(cfg.n_steps) is int and cfg.n_steps == 7

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

    def test_initial_field_of_the_wrong_shape_is_rejected(self):
        wide = SystemDef(name="wide", dim=2, field=lambda x: np.zeros(3),
                         jacobian=lambda x: np.zeros((2, 2)))
        cfg = dict(alpha=0.5, h=0.1, n_steps=5)
        with pytest.raises(ValueError, match=r"returned shape \(3,\), expected \(2,\)$"):
            integrate(wide, SolverConfig(x0=[1.0, 2.0], **cfg))
        with pytest.raises(ValueError, match=r"expected \(2, 2\)$"):
            integrate(wide, SolverConfig(x0=[[1.0, 2.0], [3.0, 4.0]], **cfg))

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

    Step n takes the tails of the reversed lag-weight vectors of an N-step
    run, so every weight has the bits the solver uses; it returns the states
    and the predictor states.
    """
    alpha, h, N = cfg.alpha, cfg.h, cfg.n_steps
    x0 = np.asarray(cfg.x0, dtype=float)
    cp = h ** alpha / math.gamma(alpha + 1.0)
    cc = h ** alpha / math.gamma(alpha + 2.0)
    b = _lag_weights(N + 1, alpha)[0][::-1]  # b[N - n + j] = b[j, n+1]
    a = _lag_weights(N, alpha)[1][::-1]  # a[N - n + j - 1] = a[j, n+1] for j >= 1
    a0 = _first_corrector_weights(np.arange(N), alpha)  # a0[n] = a[0, n+1]
    x = np.empty((N + 1, x0.size))
    xp = np.empty((N, x0.size))
    F = np.empty((N + 1, x0.size))
    x[0] = x0
    F[0] = sys.field(x0)
    for n in range(N):
        xp[n] = x0 + cp * (b[N - n :] @ F[: n + 1])
        acc = a0[n] * F[0] + a[N - n :] @ F[1 : n + 1] + sys.field(xp[n])
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
# inside one block, its edges, the first far-field tiles, and runs whose
# last tiles are clipped to the steps that exist, at lengths that are not
# 5-smooth and so transform zero-padded: 976 = 2^4 * 61 and 464 = 2^4 * 29
# at N=2000, 952 and 440 at N=3000
ORACLE_STEPS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 4 * _BLOCK + 1, 2000, 3000)


def assert_matches_direct_sum(sys, cfg):
    states, preds = direct_abm(sys, cfg)
    traj = integrate(sys, cfg, keep_predictor=True)
    for got, expected in ((traj.states, states), (traj.predictor_states, preds)):
        bad = np.abs(got - expected) > 1e-13 * np.maximum(1.0, np.abs(expected))
        assert not bad.any(), f"{sys.name} from {cfg.x0}, N={cfg.n_steps}: {np.argwhere(bad)[:3]}"


def far_field_steps(n_steps):
    """The first steps of the top far-field tiles and the steps before them,
    q * _BLOCK and q * _BLOCK - 1 for q = 1, 2, 4, ..., and eight steps
    spread over the run, first and last included."""
    tops = [2**i * _BLOCK for i in range(n_steps.bit_length()) if 2**i * _BLOCK < n_steps]
    tiles = [n for top in tops for n in (top - 1, top)]
    return sorted({*tiles, *np.linspace(0, n_steps - 1, 8).astype(int).tolist()})


def sampled_direct_sums(sys, cfg, steps):
    """Largest deviation, relative to max(1, |x|), of the predictor and
    corrector values of step n for n in `steps` from the history sums of the
    module docstring, their terms added exactly (math.fsum). The field values
    are `sys.float_field` of the stored states and predictor states, which
    have the bits the run used."""
    alpha, N = cfg.alpha, cfg.n_steps
    traj = integrate(sys, cfg, keep_predictor=True)
    x0, preds, states = traj.states[0].tolist(), traj.predictor_states, traj.states
    F = np.array([sys.float_field(x) for x in states[: max(steps) + 1].tolist()])
    cp = cfg.h ** alpha / math.gamma(alpha + 1.0)
    cc = cfg.h ** alpha / math.gamma(alpha + 2.0)
    b, ak = _lag_weights(N, alpha)
    worst = 0.0
    for n in steps:
        lagged = F[n::-1]  # F[n - k] at lag k = 0..n
        fp = sys.float_field(preds[n].tolist())
        a0 = float(_first_corrector_weights(n, alpha))
        for i in range(sys.dim):
            xp = x0[i] + cp * math.fsum((b[: n + 1] * lagged[:, i]).tolist())
            # a[j, n+1] = ak[n - j] for 1 <= j <= n, then the F[0] and F(x_p) terms
            xc = x0[i] + cc * math.fsum([*(ak[:n] * lagged[:-1, i]).tolist(), a0 * F[0, i], fp[i]])
            for got, direct in ((preds[n, i], xp), (states[n + 1, i], xc)):
                worst = max(worst, abs(got - direct) / max(1.0, abs(direct)))
    return worst


def next_smooth_lengths(limit):
    """The smallest 2^a * 3^b * 5^c >= n, at index n for n < limit, found by
    dividing every integer below twice `limit` by 2, 3 and 5 while it can."""
    rest = np.arange(2 * limit)
    rest[0] = 7  # 0 is not a length
    for p in (2, 3, 5):
        while (divisible := rest % p == 0).any():
            rest[divisible] //= p
    candidates = np.where(rest == 1, np.arange(2 * limit), 2 * limit)
    return np.minimum.accumulate(candidates[::-1])[::-1][:limit]


def test_fast_length_is_the_next_5_smooth_length():
    next_smooth = next_smooth_lengths(2**21 + 1)
    for n in range(1, 2**16 + 1):
        assert _fast_length(n) == next_smooth[n], n
    for n in np.random.default_rng(24).integers(2**16, 2**21, 2000, endpoint=True).tolist():
        assert _fast_length(n) == next_smooth[n], n


class TestKernelAgainstDirectSum:
    @pytest.mark.parametrize("alpha", (0.3, 0.65, 1.0))
    @pytest.mark.parametrize("model", ["controlled", "linear-decay"])
    def test_integrate_matches_direct_sum(self, model, alpha):
        runs = CONTROLLED_RUNS if model == "controlled" else ((LINEAR, [1.0]),)
        for sys, x0 in runs:
            for n_steps in ORACLE_STEPS:
                cfg = SolverConfig(alpha=alpha, h=0.01, n_steps=n_steps, x0=x0)
                assert_matches_direct_sum(sys, cfg)

    def test_sampled_steps_of_a_long_run(self):
        # every far-field tile size up to N / 2, where a full direct sum is
        # out of reach: the paper gains, epsilon = 0.01 from e1
        sys, x0 = CONTROLLED_RUNS[0]
        cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=2**16, x0=x0)
        steps = far_field_steps(cfg.n_steps)
        assert steps[:4] == [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1] and len(steps) == 24
        assert sampled_direct_sums(sys, cfg, steps) <= 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(1, 3000), st.floats(0.05, 1.0))
    def test_any_length_and_order(self, n_steps, alpha):
        assert_matches_direct_sum(LINEAR, SolverConfig(alpha=alpha, h=0.01,
                                                       n_steps=n_steps, x0=[1.0]))


def counted(sys):
    """`sys` with its `field` and `float_field` calls counted in a dict."""
    calls = {"field": 0, "float_field": 0}

    def count(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped if fn is not None else None

    return dataclasses.replace(sys, field=count("field", sys.field),
                               float_field=count("float_field", sys.float_field)), calls


class TestSegments:
    """Clean runs: one field evaluation per stage, float steps bitwise equal."""

    @pytest.mark.parametrize("case", ["controlled", "linear-decay", "batch", "keep-predictor"])
    def test_a_clean_run_evaluates_the_field_twice_per_step(self, case):
        # a segment that raised inside would replay and call the field again
        sys, x0 = CONTROLLED_RUNS[0]
        if case == "linear-decay":
            sys, x0 = LINEAR, [1.0]
        elif case == "batch":
            x0 = [x0, x0 - 0.02, x0 + 0.03]
        n_steps = 3 * _BLOCK + 10
        counted_sys, calls = counted(sys)
        integrate(counted_sys, SolverConfig(alpha=0.65, h=0.01, n_steps=n_steps, x0=x0),
                  keep_predictor=case == "keep-predictor")
        assert calls["field"] + calls["float_field"] == 2 * n_steps + 1
        if case in ("controlled", "keep-predictor"):  # the float steps did the work
            assert calls == {"field": 1, "float_field": 2 * n_steps}

    @pytest.mark.parametrize("n_steps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                         2 * _BLOCK - 1, 2 * _BLOCK, 3000])
    def test_float_steps_equal_numpy_steps_bitwise(self, n_steps):
        for sys, x0 in CONTROLLED_RUNS:
            cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=n_steps, x0=x0)
            fast = integrate(sys, cfg, keep_predictor=True)
            slow = integrate(dataclasses.replace(sys, float_field=None), cfg, keep_predictor=True)
            assert fast.states.tobytes() == slow.states.tobytes()
            assert fast.predictor_states.tobytes() == slow.predictor_states.tobytes()


# Failure injection: -x/10 on d = 2, at a step size whose cc = 1.5 lets a
# finite predictor field value overflow the corrected state.
TRIP_CFG = dict(alpha=0.5, h=4.0, n_steps=3 * _BLOCK + 32)
TRIP_X0 = np.array([[1.0, 2.0], [-0.5, 0.25], [3.0, -1.0]])
STAGES = {  # stage: (the stage's input in a clean run, the field value there)
    "predictor field value": ("predictor", math.nan),
    "corrected state": ("predictor", 1.7e308),
    "corrector field value": ("state", -math.inf),
}


def tripwire_system(trigger, bad, strict):
    """-x/10, but `bad` where a state equals its row of `trigger`.

    `trigger` is (d,) or (B, d); a NaN row never matches. With `strict` the
    field raises ValueError on non-finite input, as some user fields do.
    """
    trigger = np.asarray(trigger, dtype=float)

    def field(x):
        x = np.asarray(x, dtype=float)
        if strict and not np.isfinite(x).all():
            raise ValueError("non-finite state")
        out = -0.1 * x
        out[(x == trigger).all(axis=-1)] = bad
        return out

    def float_field(x):
        if strict and not all(map(math.isfinite, x)):
            raise ValueError("non-finite state")
        return [bad] * len(x) if x == trigger.tolist() else [-0.1 * v for v in x]

    return SystemDef(name="tripwire", dim=2, field=field, jacobian=lambda x: None,
                     float_field=float_field if trigger.ndim == 1 else None)


def per_step_checked(sys, cfg):
    """The step loop with a check at every stage and no segments."""
    scheme = _Scheme(sys, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.n_steps):
            scheme.steps(sys.field, n, n + 1, None, scheme.check)
            scheme.push(n + 1)


def raised(run, sys, cfg):
    with pytest.raises(NumericalError) as err:
        run(sys, cfg)
    return str(err.value), err.value.step_index, err.value.time, err.value.rows


class TestReplay:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("path", ["float", "numpy", "batch"])
    # in the first segment, at its last step (only F[255] sees that
    # failure before `push`) and in a later segment
    @pytest.mark.parametrize("step", [3, _BLOCK - 1, 700])
    @pytest.mark.parametrize("stage", list(STAGES))
    def test_failure_is_the_error_of_the_per_step_checks(self, stage, step, path, strict):
        x0 = TRIP_X0 if path == "batch" else TRIP_X0[0]
        cfg = SolverConfig(x0=x0, **TRIP_CFG)
        clean = integrate(tripwire_system(np.full(2, np.nan), 0.0, False), cfg,
                          keep_predictor=True)
        where, bad = STAGES[stage]
        trigger = (clean.predictor_states[step - 1] if where == "predictor"
                   else clean.states[step]).copy()
        if path == "batch":
            trigger[1] = np.nan  # members 0 and 2 fail
        sys = tripwire_system(trigger, bad, strict)
        if path == "numpy":
            sys = dataclasses.replace(sys, float_field=None)
        got = raised(integrate, sys, cfg)
        assert got == raised(per_step_checked, sys, cfg)
        message, step_index, time, rows = got
        assert message == f"non-finite {stage} at step {step} (t = {step * 4.0:.10g})"
        assert (step_index, time) == (step, step * 4.0)
        assert rows == ((0, 2) if path == "batch" else None)


BATCH_GAINS = [(1.2, 1.2, 0.5, 0.5, 0.0), (0.8, 1.9, 1.1, 0.6, 1.3), (2.0, 0.5, 0.7, 1.7, 0.9),
               (1.0, 1.0, 1.0, 1.0, 1.0), (0.3, 0.9, 1.4, 0.2, 0.6)]
BATCH_TARGET = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)


def batched_runs(x0, n_steps=300):
    """integrate_batches over the controlled model, run b with BATCH_GAINS[b];
    the batches and the number of runs `build` was asked for, per call."""
    sizes = []

    def build(rows):
        sizes.append(len(rows))
        return registry.build_system(maxbloch.CONTROLLED_SYSTEM_NAME,
                                     gains=[BATCH_GAINS[b] for b in rows],
                                     target=[BATCH_TARGET] * len(rows))

    cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=n_steps, x0=x0)
    return list(integrate_batches(build, cfg)), sizes


def lone_run(b, x0, n_steps=300):
    sys = maxbloch.controlled_system(BATCH_GAINS[b], BATCH_TARGET)
    return integrate(sys, SolverConfig(alpha=0.65, h=0.01, n_steps=n_steps, x0=x0))


class TestIntegrateBatches:
    X0 = [BATCH_TARGET + 0.01 * (b + 1) for b in range(5)]

    # 301 grid points of 5 float64 values per run
    @pytest.mark.parametrize("cap, sizes", [(solver.BATCH_BYTES, [5]),
                                            (2 * 8 * 5 * 301, [2, 2, 1]),
                                            (2 * 8 * 5 * 301 - 1, [1] * 5),
                                            (1, [1] * 5)])
    def test_runs_equal_their_lone_runs_in_batches_under_the_cap(self, monkeypatch,
                                                                 cap, sizes):
        monkeypatch.setattr(solver, "BATCH_BYTES", cap)
        batches, built = batched_runs(self.X0)
        assert [len(batch) for batch in batches] == sizes == built
        assert [b for batch in batches for b, _ in batch] == list(range(5))
        for batch in batches:
            assert all(traj.times is batch[0][1].times for _, traj in batch)
            for b, traj in batch:
                lone = lone_run(b, self.X0[b])
                assert bits(traj.times) == bits(lone.times)
                assert bits(traj.states) == bits(lone.states)

    def test_failures_rerun_the_survivors_as_one_batch(self):
        x0 = list(self.X0)
        x0[1] = BATCH_TARGET + 1e150                   # fails past step 0
        x0[3] = np.array([1e200, 1.0, 1.0, 1.0, 1e200])  # fails at step 0
        (batch,), sizes = batched_runs(x0)
        assert sizes == [5, 4, 3]
        assert [b for b, _ in batch] == list(range(5))
        for b, outcome in batch:
            if b in (1, 3):
                with pytest.raises(NumericalError) as alone:
                    lone_run(b, x0[b])
                assert str(outcome) == str(alone.value)
                assert (outcome.step_index, outcome.time) == (alone.value.step_index,
                                                              alone.value.time)
            else:
                assert bits(outcome.states) == bits(lone_run(b, x0[b]).states)
        assert batch[1][1].step_index >= 1 and batch[3][1].step_index == 0

    def test_a_lone_initial_state_is_rejected(self):
        cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=10, x0=self.X0[0])
        with pytest.raises(ValueError, match=r"\(B, d\) x0, got shape \(5,\)"):
            next(integrate_batches(lambda rows: maxbloch.system(), cfg))


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
        # lists that are not three or more halving sizes get their errors, unfitted
        for hs in ([0.1], [0.04, 0.02], [0.05, 0.04, 0.02], [0.04, 0.02, 0.02],
                   [0.01, 0.02, 0.04]):
            rep = convergence_order(LINEAR, 1.0, oracle, hs, 1.0, [1.0])
            assert rep.h_values == tuple(hs) and min(rep.max_errors) > 0.0, hs
            assert (rep.slope, rep.residual, rep.degenerate) == (None, None, False), hs
        with pytest.raises(ValueError, match="at least one step size"):
            convergence_order(LINEAR, 1.0, oracle, [], 1.0, [1.0])
        with pytest.raises(ValueError, match="over 1000000 steps"):
            convergence_order(LINEAR, 1.0, oracle, [1e-10, 5e-11, 2.5e-11], 1e300, [1.0])
        with pytest.raises(ValueError, match="no grid point"):
            convergence_order(LINEAR, 1.0, oracle, [0.1, 0.05, 0.025], 1.0, [1.0], t_min=5.0)

    def test_max_errors_equal_the_per_point_loop(self):
        alpha, x0 = 0.65, 0.8
        oracle = registry.oracle_for(registry.LINEAR_DECAY, alpha, [x0])
        hs, tau, t_min = [0.04, 0.02, 0.01], 2.0, 0.5
        expected = []
        for h in hs:
            traj = integrate(LINEAR, SolverConfig(alpha=alpha, h=h, n_steps=round(tau / h),
                                                  x0=[x0]))
            worst = 0.0
            for t, state in zip(traj.times, traj.states):
                if t >= t_min - 1e-12:
                    worst = max(worst, float(np.max(np.abs(state - oracle(t)))))
            expected.append(worst)
        rep = convergence_order(LINEAR, alpha, oracle, hs, tau, [x0], t_min)
        assert rep.max_errors == tuple(expected)

    def test_non_finite_oracle_is_rejected(self):
        # NaN past t = 1 used to vanish from max(), leaving the true oracle's errors
        oracle = lambda t: math.exp(-t) if t <= 1.0 else math.nan
        with pytest.raises(ValueError, match="oracle is not finite at t = 1.01"):
            convergence_order(LINEAR, 1.0, oracle, [0.01], 2.0, [1.0])
        with pytest.raises(ValueError, match="not finite"):
            convergence_order(LINEAR, 1.0, lambda t: [math.inf], [0.04, 0.02, 0.01], 1.0, [1.0])

    def test_window_without_grid_points_gives_zero(self):
        # 10 steps of h just under 0.1 end 5e-10 short of t_min = tau
        h = (1.0 - 5e-10) / 10
        rep = convergence_order(LINEAR, 1.0, lambda t: math.nan, [h], 1.0, [1.0], t_min=1.0)
        assert rep.max_errors == (0.0,)

    @pytest.mark.parametrize("tau, t_min", [(math.nan, 0.0), (math.inf, 0.0),
                                            (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_horizon_rejected(self, tau, t_min):
        oracle = lambda t: math.exp(-t)
        with pytest.raises(ValueError, match="finite"):
            convergence_order(LINEAR, 1.0, oracle, [0.04, 0.02, 0.01], tau, [1.0],
                              t_min=t_min)
