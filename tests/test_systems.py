import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import maxbloch, registry, stability
from fracdyn.systems import (
    EQUILIBRIUM_TOL,
    SystemDef,
    as_gains,
    as_state,
    controlled,
    is_equilibrium,
    validate_alpha,
)
from fracdyn.solver import SolverConfig, integrate

from conftest import bits
from oracles import finite_difference_jacobian

E1 = maxbloch.e1(np.sqrt(3.0) / 4.0, 0.25)


def test_alpha_bounds():
    assert validate_alpha(1.0) == 1.0
    assert validate_alpha(0.65) == 0.65
    for bad in (0.0, -0.3, 1.0000001, 2.0):
        with pytest.raises(ValueError):
            validate_alpha(bad)


def test_as_state_checks():
    np.testing.assert_array_equal(as_state(2.0), [2.0])
    with pytest.raises(ValueError, match="flat vector"):
        as_state(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        as_state([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_state([np.nan, 0.0])


@pytest.mark.parametrize("call", [
    lambda: as_state([10**400]),
    lambda: as_state([0.0, Fraction(-10**400)]),
    lambda: validate_alpha(10**400),
    lambda: validate_alpha(Fraction(10**400, 3)),
    lambda: as_gains([1, 1, 1, 1, 10**400], 5),
    lambda: controlled(maxbloch.system(), [[1] * 5, [10**400] * 5], [E1, E1]),
    lambda: controlled(maxbloch.system(), np.ones(5), [E1, [10**400, 0, 0, 0, 0]]),
    lambda: registry.oracle_for(registry.LINEAR_DECAY, 0.5, [10**400]),
    lambda: registry.oracle_for(registry.LINEAR_DECAY, 2**1100, [1.0]),
    lambda: stability.matignon_margins([10**400], 0.5),
    lambda: stability.e1_gain_condition((1, 1, 0.5, 0.5, 0), 0.5, 0).to_text(10**400),
    lambda: stability.e1_gain_condition((1, 1, 0.5, 0.5, 0), 0.5, 0).to_kv(10**400),
], ids=["state-int", "state-fraction", "alpha-int", "alpha-fraction", "gains",
        "batched-gains", "batched-targets", "oracle-x0", "oracle-alpha", "eigenvalues",
        "report-text-alpha", "report-kv-alpha"])
def test_exact_inputs_beyond_the_float_range_are_bad_input(call):
    # ValueError, not the OverflowError of converting them to float
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_oracle_refuses_a_non_finite_x0(x0):
    # not an oracle that yields NaN at every t
    with pytest.raises(ValueError, match="state contains non-finite components"):
        registry.oracle_for(registry.LINEAR_DECAY, 0.5, [x0])


def test_gain_coercion():
    np.testing.assert_array_equal(as_gains(0.5, 3), [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(as_gains([1, 2, 3], 3), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_gains([1.0, -0.1, 0.0], 3)
    with pytest.raises(ValueError):
        as_gains([1.0, 2.0], 3)


def test_system_def_requires_positive_dim():
    with pytest.raises(ValueError):
        SystemDef(name="bad", dim=0, field=lambda x: x, jacobian=lambda x: x)


def test_is_equilibrium_on_model_points():
    sys = maxbloch.system()
    assert is_equilibrium(sys, [3.0, 4.0, 0.0, 0.0, 0.0])
    assert is_equilibrium(sys, [0.0, 0.0, 0.0, 0.0, 7.0])
    assert not is_equilibrium(sys, [0.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        is_equilibrium(sys, [1.0, 2.0])


def test_zero_gain_leaves_field_unchanged(rng):
    sys = maxbloch.system()
    wrapped = controlled(sys, np.zeros(5), maxbloch.e1(0.25, -0.5))
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 5)
        np.testing.assert_array_equal(wrapped.field(x), sys.field(x))


def test_control_vanishes_at_target():
    target = maxbloch.e1(np.sqrt(3.0) / 4.0, 0.25)
    wrapped = controlled(maxbloch.system(), [1.2, 1.2, 0.5, 0.5, 0.0], target)
    np.testing.assert_array_equal(wrapped.field(target), np.zeros(5))
    assert is_equilibrium(wrapped, target)


def test_controlled_jacobian_is_exact_shift(rng):
    gains = np.array([1.2, 1.2, 0.5, 0.5, 0.0])
    sys = maxbloch.system()
    wrapped = controlled(sys, gains, maxbloch.e2(-0.125))
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 5)
        np.testing.assert_array_equal(
            wrapped.jacobian(x), sys.jacobian(x) - np.diag(gains)
        )


def test_batched_gains_have_no_jacobian():
    # a Jacobian maps one state to one matrix; the field stays batched
    sys = controlled(maxbloch.system(), np.ones((3, 5)), maxbloch.e2(-0.125))
    with pytest.raises(ValueError, match="one state to one"):
        sys.jacobian(np.zeros(5))
    assert sys.field(np.zeros((3, 5))).shape == (3, 5)


def test_controlled_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        controlled(maxbloch.system(), np.ones(5), [1.0, 0.0, 1.0, 0.0, 0.0])


def test_one_equilibrium_tolerance():
    # a target is held to the tolerance every equilibrium test uses
    assert stability.EQUILIBRIUM_TOL is EQUILIBRIUM_TOL == 1e-10
    assert "EQUILIBRIUM_TOL" not in stability.__all__
    assert list(inspect.signature(is_equilibrium).parameters) == ["sys", "x"]
    sys = maxbloch.system()
    with pytest.raises(ValueError, match="tolerance 1e-10"):
        controlled(sys, np.ones(5), [1.0, 0.0, 1e-9, 0.0, 0.0])  # field 1e-9
    controlled(sys, np.ones(5), [1.0, 0.0, 1e-10, 0.0, 0.0])  # field 1e-10


def test_jacobians_match_finite_differences(rng):
    systems = [
        maxbloch.system(),
        registry.build_system(registry.ZERO_FIELD),
        registry.build_system(registry.LINEAR_DECAY),
        controlled(maxbloch.system(), [0.7, 0.7, 0.2, 0.2, 0.1], maxbloch.e2(0.5)),
    ]
    for sys in systems:
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, sys.dim)
            jac = np.asarray(sys.jacobian(x), dtype=float)
            assert jac.shape == (sys.dim, sys.dim), sys.name
            fd = finite_difference_jacobian(sys.field, x)
            assert np.max(np.abs(fd - jac)) <= 1e-5 * (1.0 + np.max(np.abs(jac)))


def registered_systems():
    # only the controlled model takes gains and a target
    params = {maxbloch.CONTROLLED_SYSTEM_NAME: {"gains": [1.2, 1.2, 0.5, 0.5, 0.0], "target": E1}}
    return [registry.build_system(name, **params.get(name, {}))
            for name in registry.SYSTEMS]


@pytest.mark.parametrize("batch", [1, 2, 5, 7])
def test_fields_on_batches_equal_row_calls_bitwise(rng, batch):
    for sys in registered_systems():
        xs = rng.uniform(-2.0, 2.0, (batch, sys.dim))
        values = sys.field(xs)
        assert values.shape == xs.shape, sys.name
        # the controlled model's rows take its float path, batches its numpy path
        assert bits(values) == bits([sys.field(x) for x in xs]), sys.name


@pytest.mark.parametrize("batch", [1, 5])
def test_batched_controlled_equals_row_systems_bitwise(rng, batch):
    gains = rng.uniform(0.0, 2.0, (batch, 5))
    targets = np.array([maxbloch.e1(*rng.uniform(0.1, 1.0, 2)) for _ in range(batch)])
    targets[-1] = maxbloch.e2(-0.125)
    both = controlled(maxbloch.system(), gains, targets)
    one_gain = controlled(maxbloch.system(), gains[0], targets)
    one_target = controlled(maxbloch.system(), gains, targets[0])
    xs = rng.uniform(-2.0, 2.0, (batch, 5))
    for b, x in enumerate(xs):
        rows = [
            (both, controlled(maxbloch.system(), gains[b], targets[b])),
            (one_gain, controlled(maxbloch.system(), gains[0], targets[b])),
            (one_target, controlled(maxbloch.system(), gains[b], targets[0])),
        ]
        for batched, single in rows:
            np.testing.assert_array_equal(batched.field(xs)[b], single.field(x))


def test_batched_controlled_validates_every_row():
    base = maxbloch.system()
    good = np.array([[1.0] * 5, [0.5] * 5])
    with pytest.raises(ValueError, match="equilibrium"):
        controlled(base, good, [E1, [0.0, 0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-negative"):
        controlled(base, [[1.0] * 5, [1.0, -0.1, 1.0, 1.0, 1.0]], [E1, E1])
    with pytest.raises(ValueError, match="non-finite"):
        controlled(base, good, [E1, [np.nan, 0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="rows"):
        controlled(base, good, [E1, E1, E1])


def batch_and_lone_systems(name, rng, batch):
    """The system for a (batch, d) x0, the lone system of each member, and x0."""
    if name.startswith("controlled"):
        target = E1 if name == "controlled-e1" else maxbloch.e2(-0.125)
        gains = rng.uniform(0.5, 2.0, (batch, 5))
        return (maxbloch.controlled_system(gains, [target] * batch),
                [maxbloch.controlled_system(k, target) for k in gains],
                target + rng.uniform(-0.05, 0.05, (batch, 5)))
    sys = registry.build_system(name)
    return sys, [sys] * batch, rng.uniform(-0.2, 0.2, (batch, sys.dim))


@pytest.mark.parametrize("name", ["controlled-e1", "controlled-e2",
                                  registry.LINEAR_DECAY, maxbloch.SYSTEM_NAME])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 700), st.floats(0.05, 1.0),
       st.integers(0, 2**32 - 1))
def test_batch_members_equal_lone_runs_bitwise(name, batch, n_steps, alpha, seed):
    # 700 steps cross the 256 and 512 block edges of the far-field sums; the
    # solver's effective step h^alpha stays 0.05, as at h = 0.01, alpha = 0.65
    batched, lone, x0 = batch_and_lone_systems(name, np.random.default_rng(seed), batch)
    cfg = dict(alpha=alpha, h=0.05 ** (1.0 / alpha), n_steps=n_steps)
    traj = integrate(batched, SolverConfig(x0=x0, **cfg), keep_predictor=True)
    assert traj.states.shape == (n_steps + 1,) + x0.shape
    for b in range(batch):
        alone = integrate(lone[b], SolverConfig(x0=x0[b], **cfg), keep_predictor=True)
        assert bits(traj.states[:, b]) == bits(alone.states)
        assert bits(traj.predictor_states[:, b]) == bits(alone.predictor_states)
