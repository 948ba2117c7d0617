import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import maxbloch, numkit
from fracdyn.solver import NumericalError, SolverConfig, integrate
from fracdyn.systems import controlled

from conftest import bits
from oracles import char_poly, controlled_jacobian, field_matrix_form, finite_difference_jacobian


# Signed zeros, subnormals, products that overflow, infinities and NaN
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e154, -1e154,
           math.inf, -math.inf, math.nan, 1.0, -0.75]
COMPONENTS = st.sampled_from(SPECIAL) | st.floats(-4.0, 4.0)
GAIN = st.sampled_from([0.0, 0.5, 1e154]) | st.floats(0.0, 3.0)
TARGETS = (st.tuples(st.floats(-2.0, 2.0), st.floats(0.01, 2.0)).map(lambda mn: maxbloch.e1(*mn))
           | st.floats(-2.0, 2.0).map(maxbloch.e2))


@pytest.mark.parametrize("call, message", [
    (lambda: maxbloch.e1(10**400, 0), "m or n exceeds the float range"),
    (lambda: maxbloch.e2(10**400), "m exceeds the float range"),
    (lambda: maxbloch.lipschitz_bound([0, 0, 0, 0, 0], 10**400), "delta exceeds"),
], ids=["e1", "e2", "lipschitz-delta"])
def test_exact_inputs_beyond_the_float_range_are_bad_input(call, message):
    # DomainError, a ValueError, not the OverflowError of converting them to float
    with pytest.raises(numkit.DomainError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: maxbloch.e1(math.nan, 0),
    lambda: maxbloch.e2(math.inf),
    lambda: maxbloch.lipschitz_bound([0, 0, 0, 0, 0], math.nan),
    lambda: maxbloch.lipschitz_bound([2.0**1023, 0, 0, 0, 0], 1.0),  # 4 |x0| overflows
], ids=["e1", "e2", "lipschitz-delta", "lipschitz-x0"])
def test_non_finite_points_and_bounds_are_bad_input(call):
    with pytest.raises(numkit.DomainError, match="exceeds the float range or is not finite"):
        call()


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    r = np.eye(5)
    r[0:2, 0:2] = [[c, -s], [s, c]]
    r[2:4, 2:4] = [[c, -s], [s, c]]
    return r


class TestField:
    def test_equilibria_give_zero(self):
        np.testing.assert_array_equal(maxbloch.field([3.0, 4.0, 0.0, 0.0, 0.0]), np.zeros(5))
        np.testing.assert_array_equal(maxbloch.field([0.0, 0.0, 0.0, 0.0, -2.0]), np.zeros(5))

    def test_direct_substitution(self):
        np.testing.assert_array_equal(
            maxbloch.field([1.0, 1.0, 1.0, 1.0, 1.0]), [1.0, 1.0, 1.0, 1.0, -2.0]
        )

    def test_matrix_form_equivalence(self, rng):
        assert np.array_equal(field_matrix_form(np.zeros(5)), np.zeros(5))
        np.testing.assert_allclose(
            field_matrix_form([1.0, 0.0, 0.0, 0.0, 1.0]),
            [0.0, 0.0, 1.0, 0.0, 0.0], atol=1e-15,
        )
        for _ in range(1000):
            x = rng.uniform(-5.0, 5.0, 5)
            delta = maxbloch.field(x) - field_matrix_form(x)
            assert np.max(np.abs(delta)) <= 1e-14

    def test_rotation_symmetry(self, rng):
        for _ in range(50):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            x = rng.uniform(-2.0, 2.0, 5)
            r = rotation(theta)
            delta = maxbloch.field(r @ x) - r @ maxbloch.field(x)
            assert np.max(np.abs(delta)) <= 1e-12

    def test_conserved_quantity_gradients_vanish(self, rng):
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, 5)
            f = maxbloch.field(x)
            grad_c1 = np.array([0.0, 0.0, 2.0 * x[2], 2.0 * x[3], 2.0 * x[4]])
            grad_c2 = np.array([-x[3], x[2], x[1], -x[0], 0.0])
            assert abs(grad_c1 @ f) <= 1e-13
            assert abs(grad_c2 @ f) <= 1e-13


class TestBatchedField:
    def test_square_batch_unpacks_rows(self, rng):
        # a (5, 5) input is five states, not five components of length 5
        xs = rng.uniform(-2.0, 2.0, (5, 5))
        np.testing.assert_array_equal(maxbloch.field(xs), [maxbloch.field(x) for x in xs])
        np.testing.assert_array_equal(
            maxbloch.field(xs)[1], [xs[1, 2], xs[1, 3], xs[1, 0] * xs[1, 4],
                                    xs[1, 1] * xs[1, 4], -(xs[1, 0] * xs[1, 2] + xs[1, 1] * xs[1, 3])])

    def test_controlled_field_keeps_family_check(self):
        with pytest.raises(ValueError, match="neither equilibrium family"):
            maxbloch.controlled_system(np.ones(5), [1.0, 0.0, 0.0, 1e-6, 0.0]).field(np.zeros(5))

    def test_batched_controlled_system_checks_every_family(self):
        with pytest.raises(ValueError, match="neither equilibrium family"):
            maxbloch.controlled_system(np.ones((2, 5)), [maxbloch.e2(1.0), [1.0, 0.0, 0.0, 1e-6, 0.0]])


class TestMatrices:
    def test_exact_entries(self):
        a = np.zeros((5, 5)); a[0, 2] = a[1, 3] = 1.0
        a1 = np.zeros((5, 5)); a1[2, 4] = 1.0; a1[4, 2] = -1.0
        a2 = np.zeros((5, 5)); a2[3, 4] = 1.0; a2[4, 3] = -1.0
        assert np.array_equal(maxbloch.A, a)
        assert np.array_equal(maxbloch.A1, a1)
        assert np.array_equal(maxbloch.A2, a2)

    def test_frobenius_norms(self):
        # the sqrt(2) constant in the Lipschitz bound is the Frobenius norm
        for m in (maxbloch.A, maxbloch.A1, maxbloch.A2):
            assert abs(np.linalg.norm(m, "fro") - math.sqrt(2.0)) <= 1e-15

    def test_constants_are_read_only(self):
        with pytest.raises(ValueError):
            maxbloch.A[0, 0] = 1.0


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, 5)
            jac = maxbloch.jacobian(x)
            fd = finite_difference_jacobian(maxbloch.field, x)
            assert np.max(np.abs(fd - jac)) <= 1e-5 * (1.0 + np.max(np.abs(jac)))

    def test_char_poly_at_first_family(self, rng):
        # det(lambda*I - J) = lambda^5 + (m^2 + n^2) * lambda^3
        for _ in range(100):
            m, n = rng.uniform(-2.0, 2.0, 2)
            s = m * m + n * n
            if s < 1e-3:
                continue
            coeffs = char_poly(maxbloch.jacobian(maxbloch.e1(m, n)))
            np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.0, s, 0.0, 1.0], atol=1e-9)

    def test_char_poly_at_second_family(self, rng):
        # det(lambda*I - J) = lambda * (lambda^2 - m)^2
        for _ in range(100):
            m = rng.uniform(-2.0, 2.0)
            coeffs = char_poly(maxbloch.jacobian(maxbloch.e2(m)))
            expected = [0.0, m * m, 0.0, -2.0 * m, 0.0, 1.0]
            np.testing.assert_allclose(coeffs, expected, atol=1e-9)

    def test_unit_circle_point_spectrum(self):
        from conftest import assert_multiset_close

        eigs = numkit.eigenvalues(maxbloch.jacobian(maxbloch.e1(1.0, 0.0)))
        assert_multiset_close(eigs, [0.0, 0.0, 0.0, 1j, -1j], 1e-9)


class TestControlled:
    GAINS = np.array([1.2, 1.2, 0.5, 0.5, 0.0])

    def test_zero_gains_reduce_to_plain_model(self, rng):
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 5)
            np.testing.assert_array_equal(
                maxbloch.controlled_system(np.zeros(5), maxbloch.e2(0.5)).field(x),
                maxbloch.field(x),
            )
        x = rng.uniform(-2.0, 2.0, 5)
        np.testing.assert_array_equal(
            controlled_jacobian(x, np.zeros(5)), maxbloch.jacobian(x)
        )

    def test_field_vanishes_at_target(self):
        target = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)
        np.testing.assert_array_equal(
            maxbloch.controlled_system(self.GAINS, target).field(target), np.zeros(5)
        )

    def test_offset_start_hand_substitution(self):
        target = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)
        eps = 0.01
        x = target + eps
        value = maxbloch.controlled_system(self.GAINS, target).field(x)
        expected = np.array([
            x[2] - 1.2 * eps,
            x[3] - 1.2 * eps,
            x[0] * x[4] - 0.5 * eps,
            x[1] * x[4] - 0.5 * eps,
            -(x[0] * x[2] + x[1] * x[3]) - 0.0 * eps,
        ])
        np.testing.assert_allclose(value, expected, atol=1e-15)
        assert np.isfinite(value).all()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(COMPONENTS, min_size=5, max_size=5),
           GAIN | st.lists(GAIN, min_size=5, max_size=5), TARGETS)
    def test_lone_field_equals_numpy_field_bitwise(self, x, k, target):
        x = np.array(x)
        sys = maxbloch.controlled_system(k, target)
        with np.errstate(all="ignore"):  # the numpy field warns on overflow, floats do not
            value = sys.field(x)
            expected = controlled(maxbloch.system(), k, target).field(x)
        assert value.shape == (5,) and value.dtype == np.float64
        assert bits(value) == bits(expected)
        assert bits(sys.float_field(x.tolist())) == bits(expected)

    @pytest.mark.parametrize("k", [0.0, 1.0, [0.5, 2.0, 0.0, 1e154, 3.0]])
    @pytest.mark.parametrize("target", [maxbloch.e2(0.0), maxbloch.e2(-0.0),
                                        maxbloch.e1(-1.0, 0.0)])
    def test_lone_field_equals_numpy_field_on_edge_grid_bitwise(self, k, target):
        # every state with components from six edge values: signed zeros meet
        # at x - target, feedback and field terms in every combination
        edges = [0.0, -0.0, 5e-324, -1.0, 1e154, -math.inf]
        xs = np.array(list(itertools.product(edges, repeat=5)))
        sys = maxbloch.controlled_system(k, target)
        with np.errstate(all="ignore"):
            expected = controlled(maxbloch.system(), k, target).field(xs)
            assert bits([sys.field(x) for x in xs]) == bits(expected)
        assert bits([sys.float_field(x) for x in xs.tolist()]) == bits(expected)

    @pytest.mark.parametrize("target", [maxbloch.e2(0.0), maxbloch.e1(0.5, 0.5)])
    def test_blow_up_is_the_same_error_through_either_field(self, target):
        cfg = SolverConfig(alpha=0.65, h=0.01, n_steps=60, x0=target + 1e150)
        errors = []
        for sys in (maxbloch.controlled_system(self.GAINS, target),
                    controlled(maxbloch.system(), self.GAINS, target)):
            with pytest.raises(NumericalError) as err:
                integrate(sys, cfg)
            errors.append((err.value.step_index, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] >= 1

    def test_target_outside_families_rejected(self):
        with pytest.raises(ValueError):
            maxbloch.controlled_system(self.GAINS, [1.0, 0.0, 1.0, 0.0, 0.0]).field(np.zeros(5))
        with pytest.raises(ValueError):  # its field is 1e-9
            maxbloch.controlled_system(self.GAINS, [1.0, 0.0, 1e-9, 0.0, 0.0])

    def test_jacobian_is_diagonal_shift(self, rng):
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 5)
            k = rng.uniform(0.0, 2.0, 5)
            np.testing.assert_array_equal(
                controlled_jacobian(x, k),
                maxbloch.jacobian(x) - np.diag(k),
            )

    def test_controlled_system_jacobian_consistent(self, rng):
        target = maxbloch.e2(-0.125)
        sys = maxbloch.controlled_system(self.GAINS, target)
        x = rng.uniform(-1.0, 1.0, 5)
        np.testing.assert_array_equal(
            sys.jacobian(x), controlled_jacobian(x, self.GAINS)
        )

    def test_char_poly_factorization_at_second_family(self, rng):
        # -(lambda + k5) (lambda^2 + (k1+k3) lambda + k1 k3 - m)
        #               (lambda^2 + (k2+k4) lambda + k2 k4 - m), sign-normalized
        for _ in range(50):
            k = rng.uniform(0.05, 2.0, 5)
            m = rng.uniform(-1.5, 1.5)
            jac = controlled_jacobian(maxbloch.e2(m), k)
            coeffs = char_poly(jac)
            factors = [
                np.array([k[4], 1.0]),
                np.array([k[0] * k[2] - m, k[0] + k[2], 1.0]),
                np.array([k[1] * k[3] - m, k[1] + k[3], 1.0]),
            ]
            expected = np.array([1.0])
            for f in factors:
                expected = np.convolve(expected, f)
            np.testing.assert_allclose(coeffs, expected, atol=1e-9)

    def test_char_poly_factorization_at_first_family(self, rng):
        # -(lambda + k1)(lambda + k2) P(lambda) with the cubic from the gains
        from fracdyn.stability import cubic_from_gains

        for _ in range(50):
            k = rng.uniform(0.05, 2.0, 5)
            m, n = rng.uniform(-1.5, 1.5, 2)
            if m * m + n * n < 1e-3:
                continue
            jac = controlled_jacobian(maxbloch.e1(m, n), k)
            coeffs = char_poly(jac)
            cubic = cubic_from_gains(k[2], k[3], k[4], m, n)
            expected = np.convolve(
                np.convolve([k[0], 1.0], [k[1], 1.0]),
                np.array(cubic.polynomial(), dtype=float),
            )
            np.testing.assert_allclose(coeffs, expected, atol=1e-9)


class TestEquilibria:
    def test_family_points(self):
        np.testing.assert_array_equal(
            maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25),
            [math.sqrt(3.0) / 4.0, 0.25, 0.0, 0.0, 0.0],
        )
        np.testing.assert_array_equal(maxbloch.e2(-0.125), [0, 0, 0, 0, -0.125])
        np.testing.assert_array_equal(maxbloch.e2(0.0), np.zeros(5))

    def test_degenerate_first_family_rejected(self):
        with pytest.raises(ValueError):
            maxbloch.e1(0.0, 0.0)
        with pytest.raises(ValueError):
            maxbloch.e1(-0.0, 0.0)

    def test_equilibrium_point_tags(self):
        np.testing.assert_array_equal(
            maxbloch.equilibrium_point("e1", (1.0, 2.0)), [1, 2, 0, 0, 0]
        )
        np.testing.assert_array_equal(
            maxbloch.equilibrium_point("E2", (3.0,)), [0, 0, 0, 0, 3]
        )
        with pytest.raises(ValueError):
            maxbloch.equilibrium_point("e3", (1.0,))

    def test_family_of_round_trip(self):
        tag, params = maxbloch.family_of(maxbloch.e1(0.3, -0.4))
        assert tag == "e1" and params == (0.3, -0.4)
        tag, params = maxbloch.family_of(maxbloch.e2(2.5))
        assert tag == "e2" and params == (2.5,)
        assert maxbloch.family_of(np.zeros(5))[0] == "e2"
        with pytest.raises(ValueError):
            maxbloch.family_of([0.1, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="neither equilibrium family"):
            maxbloch.family_of([1.0, 0.0, 1e-13, 0.0, 0.0])  # membership is exact

    @pytest.mark.parametrize("m", [1e-7, 1e-200, 5e-324])
    def test_family_of_round_trip_near_the_origin(self, m):
        # membership is exact: m^2 may underflow, and m is still off the origin
        assert maxbloch.family_of(maxbloch.e1(m, 0.0)) == ("e1", (m, 0.0))

    def test_family_of_a_point_whose_square_overflows(self):
        # no square is formed, so none overflows and nothing warns
        assert maxbloch.family_of(maxbloch.e1(0.0, 1e200)) == ("e1", (0.0, 1e200))

    def test_grid_scan_finds_only_the_two_families(self):
        grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
        for point in itertools.product(grid, repeat=5):
            x = np.array(point)
            if np.max(np.abs(maxbloch.field(x))) <= 1e-12:
                maxbloch.family_of(x)  # raises if outside both families


class TestLipschitz:
    def test_formula_values(self):
        assert abs(maxbloch.lipschitz_bound(np.zeros(5), 1e-12) - math.sqrt(2.0)) <= 1e-9
        bound = maxbloch.lipschitz_bound([1.0, 0.0, 0.0, 0.0, 0.0], 0.5)
        assert abs(bound - 6.0 * math.sqrt(2.0)) <= 1e-12

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            maxbloch.lipschitz_bound(np.zeros(5), 0.0)

    def test_monte_carlo_bound_holds(self, rng):
        delta = 1.0
        for _ in range(2):
            center = rng.uniform(-2.0, 2.0, 5)
            bound = maxbloch.lipschitz_bound(center, delta)
            for _ in range(100):
                x = center + rng.uniform(-delta, delta, 5)
                y = center + rng.uniform(-delta, delta, 5)
                gap = np.linalg.norm(x - y)
                if gap == 0.0:
                    continue
                ratio = np.linalg.norm(maxbloch.field(x) - maxbloch.field(y)) / gap
                assert ratio <= bound


def test_system_names():
    assert maxbloch.system().name == "maxwell-bloch-5d"
    sys = maxbloch.controlled_system(np.ones(5), maxbloch.e2(0.0))
    assert sys.name == "maxwell-bloch-5d-controlled"
