import numpy as np
import pytest

from fracdyn import maxbloch, registry
from fracdyn.systems import (
    SystemDef,
    as_gains,
    as_state,
    controlled,
    finite_difference_jacobian,
    is_equilibrium,
    stacked,
    validate_alpha,
)
from fracdyn.solver import SolverConfig, integrate

E1 = maxbloch.e1(np.sqrt(3.0) / 4.0, 0.25)


def test_alpha_bounds():
    assert validate_alpha(1.0) == 1.0
    assert validate_alpha(0.65) == 0.65
    for bad in (0.0, -0.3, 1.0000001, 2.0):
        with pytest.raises(ValueError):
            validate_alpha(bad)


def test_as_state_checks():
    np.testing.assert_array_equal(as_state(2.0), [2.0])
    with pytest.raises(ValueError):
        as_state([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_state([np.nan, 0.0])


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
    assert is_equilibrium(sys, [3.0, 4.0, 0.0, 0.0, 0.0], tol=1e-10)
    assert is_equilibrium(sys, [0.0, 0.0, 0.0, 0.0, 7.0], tol=1e-10)
    assert not is_equilibrium(sys, [0.0, 0.0, 1.0, 0.0, 0.0], tol=1e-10)
    with pytest.raises(ValueError):
        is_equilibrium(sys, [1.0, 2.0], tol=1e-10)
    with pytest.raises(ValueError):
        is_equilibrium(sys, [0.0] * 5, tol=0.0)


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
    assert is_equilibrium(wrapped, target, tol=1e-300)


def test_controlled_jacobian_is_exact_shift(rng):
    gains = np.array([1.2, 1.2, 0.5, 0.5, 0.0])
    sys = maxbloch.system()
    wrapped = controlled(sys, gains, maxbloch.e2(-0.125))
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 5)
        np.testing.assert_array_equal(
            wrapped.jacobian(x), sys.jacobian(x) - np.diag(gains)
        )


def test_controlled_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        controlled(maxbloch.system(), np.ones(5), [1.0, 0.0, 1.0, 0.0, 0.0])


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
            fd = finite_difference_jacobian(sys.field, x)
            assert np.max(np.abs(fd - jac)) <= 1e-5 * (1.0 + np.max(np.abs(jac)))


def registered_systems():
    return [
        registry.build_system(name, gains=[1.2, 1.2, 0.5, 0.5, 0.0], target=E1)
        for name in registry.available_systems()
    ]


@pytest.mark.parametrize("batch", [1, 2, 5, 7])
def test_fields_on_batches_equal_row_calls_bitwise(rng, batch):
    for sys in registered_systems():
        xs = rng.uniform(-2.0, 2.0, (batch, sys.dim))
        values = sys.field(xs)
        assert values.shape == xs.shape, sys.name
        np.testing.assert_array_equal(values, [sys.field(x) for x in xs])
        jac = sys.jacobian(xs)
        assert jac.shape == (batch, sys.dim, sys.dim), sys.name
        np.testing.assert_array_equal(jac, [sys.jacobian(x) for x in xs])


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
            np.testing.assert_array_equal(batched.jacobian(xs)[b], single.jacobian(x))


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


def test_stacked_system_is_rowwise_block_diagonal(rng):
    base = controlled(maxbloch.system(), rng.uniform(0.0, 2.0, (3, 5)), [E1] * 3)
    sys = stacked(base, 3)
    assert sys.dim == 15
    x = rng.uniform(-2.0, 2.0, 15)
    rows = x.reshape(3, 5)
    np.testing.assert_array_equal(sys.field(x), base.field(rows).ravel())
    jac = sys.jacobian(x)
    blocks = base.jacobian(rows)
    for i in range(3):
        for j in range(3):
            block = jac[5 * i:5 * i + 5, 5 * j:5 * j + 5]
            np.testing.assert_array_equal(block, blocks[i] if i == j else np.zeros((5, 5)))
    fd = finite_difference_jacobian(sys.field, x)
    assert np.max(np.abs(fd - jac)) <= 1e-5 * (1.0 + np.max(np.abs(jac)))
    with pytest.raises(ValueError):
        stacked(base, 0)


def test_stacked_integration_matches_single_runs(rng):
    gains = rng.uniform(0.5, 2.0, (4, 5))
    x0 = E1 + rng.uniform(-0.05, 0.05, (4, 5))
    cfg = dict(alpha=0.65, h=0.01, n_steps=300)
    batch = integrate(stacked(maxbloch.controlled_system(gains, [E1] * 4), 4),
                      SolverConfig(x0=x0.ravel(), **cfg))
    states = batch.states.reshape(301, 4, 5)
    for b in range(4):
        single = integrate(maxbloch.controlled_system(gains[b], E1),
                           SolverConfig(x0=x0[b], **cfg)).states
        assert np.max(np.abs(states[:, b] - single) / np.maximum(1.0, np.abs(single))) <= 1e-13
        # a batch of one does the single run's arithmetic
        alone = integrate(stacked(maxbloch.controlled_system(gains[b:b + 1], [E1]), 1),
                          SolverConfig(x0=x0[b], **cfg)).states
        np.testing.assert_array_equal(alone, single)
