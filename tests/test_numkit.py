import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_multiset_close, bits
from fracdyn import numkit
from oracles import char_poly


def ml_series_oracle(alpha, z, terms=400, dps=50):
    """Brute-force high-precision series sum, independent of the library path."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j in range(terms):
            total += mpmath.mpf(z) ** j / mpmath.gamma(mpmath.mpf(alpha) * j + 1)
        return float(total)


def ml_series80(alpha, z, budget=2000):
    """E_alpha(z) from the power series at 80 digits plus the digits of its
    largest term; None when the terms stay above 1e-90 for budget terms."""
    log_z = math.log(abs(z))
    log_terms = [j * log_z - math.lgamma(alpha * j + 1.0) for j in range(budget)]
    n_terms = next((j + 1 for j, t in enumerate(log_terms) if t < math.log(1e-90)), None)
    if n_terms is None:
        return None
    with mpmath.workdps(80 + int(max(log_terms[:n_terms]) / math.log(10.0))):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        return float(mpmath.fsum(zz ** j * mpmath.rgamma(a * j + 1) for j in range(n_terms)))


def ml_asymptotic_oracle(alpha, x):
    """E_alpha(-x) from its large-x expansion sum_k (-1)^(k+1) x^-k / Gamma(1 - alpha k).

    The envelope x^-k Gamma(alpha k) / pi bounds the terms; the sum, at 50
    digits, stops at the envelope's smallest value or at 1e-40 of its first,
    whichever comes first, and is None when that stop is above 1e-20 of the
    first. For alpha > 2/3 the expansion leaves out terms of size
    exp(x^(1/alpha) cos(pi/alpha)), which the caller must keep small.
    """
    envelope = lambda k: -k * math.log(x) + math.lgamma(alpha * k)
    k = 1
    while envelope(k + 1) < envelope(k) and envelope(k) > envelope(1) + math.log(1e-40):
        k += 1
    if envelope(k) > envelope(1) + math.log(1e-20):
        return None
    with mpmath.workdps(50):
        a, xx = mpmath.mpf(alpha), mpmath.mpf(x)
        return float(mpmath.fsum((-1) ** (j + 1) * xx ** -j * mpmath.rgamma(1 - a * j)
                                 for j in range(1, k)))


ML_ALPHAS = (0.05, 0.1, 0.3, 0.5, 0.65, 0.8, 0.95, 0.99, 0.999, 0.9999)


def test_as_floats_converts_exact_numbers():
    np.testing.assert_array_equal(numkit.as_floats([1, Fraction(1, 4)], "bad"), [1.0, 0.25])
    assert numkit.as_floats(Fraction(-1, 2), "bad", dtype=complex) == -0.5 + 0j
    assert np.isnan(numkit.as_floats(math.nan, "bad"))  # non-finite floats pass
    with pytest.raises(numkit.DomainError, match="^bad$"):
        numkit.as_floats([0.0, Fraction(-10**400)], "bad")


@pytest.mark.parametrize("call, message", [
    (lambda: numkit.mittag_leffler(0.5, 10**400), "z must be finite"),
    (lambda: numkit.mittag_leffler(10**400, -1.0), "alpha must lie in"),
    (lambda: numkit.eigenvalues([[10**400]]), "non-finite entries"),
    (lambda: numkit.poly_roots([10**400, 1]), "coefficients must be finite"),
    (lambda: numkit.geometric_multiplicity(np.eye(2), 10**400), "eigenvalue must be finite"),
], ids=["ml-z", "ml-alpha", "eigenvalues", "poly-roots", "multiplicity"])
def test_exact_inputs_beyond_the_float_range_are_bad_input(call, message):
    # DomainError, a ValueError, not the OverflowError of converting them to float
    with pytest.raises(numkit.DomainError, match=message):
        call()


class TestPolyRoots:
    def test_imaginary_pair(self):
        roots = numkit.poly_roots([1.0, 0.0, 1.0])
        assert_multiset_close(roots, [1j, -1j], 1e-12)

    def test_cubic_with_half_root(self):
        # x^3 + x^2 + 0.5 x + 0.125 factors as (x + 1/2)(x^2 + x/2 + 1/4)
        roots = numkit.poly_roots([0.125, 0.5, 1.0, 1.0])
        imag = math.sqrt(3.0) / 4.0
        assert_multiset_close(roots, [-0.5, -0.25 + imag * 1j, -0.25 - imag * 1j], 1e-9)

    def test_double_root_keeps_its_eigenvalue(self):
        # x (x + 1/2)^2: a Newton step toward the double root would move it by
        # its distance to the other copy or more, so polishing leaves it alone
        roots = numkit.poly_roots((0.0, 0.25, 1.0, 1.0))
        assert roots.tolist() == [-0.49999999999999994, -0.49999999999999994, 0.0]

    def test_polishing_recovers_the_small_root(self):
        # (x + 1/2)(x^2 + x/2 + 1e62): the companion eigenvalues alone lose
        # the root -1/2 against a2 = 1e62 and put the pair's real part near 0
        roots = numkit.poly_roots((0.5e62, 1e62 + 0.25, 1.0, 1.0))
        assert (roots.real < 0).all()
        assert np.abs(roots + 0.5).min() <= 1e-15

    def test_polishing_past_the_overflow_of_the_derivative(self):
        # (x + 1/2)(x^2 + x/2 + m^2) at m = 1.3e154: p'(x) ~ 3 m^2 overflows at
        # the pair, so its steps are taken on the reversed polynomial
        m2 = 1.3e154 ** 2
        roots = numkit.poly_roots((0.5 * m2, m2 + 0.25, 1.0, 1.0))
        assert abs(roots[0] + 0.5) <= 1e-15
        assert np.abs(roots[1:].real + 0.25).max() <= 1e-15

    def test_quintic_with_triple_zero(self):
        # -(x^5 + (m^2 + n^2) x^3) at m = 3, n = 4
        roots = numkit.poly_roots([0.0, 0.0, 0.0, -25.0, 0.0, -1.0])
        assert_multiset_close(roots, [0.0, 0.0, 0.0, 5j, -5j], 1e-9)

    def test_residual_bound_on_random_polynomials(self, rng):
        for _ in range(50):
            coeffs = rng.uniform(-2.0, 2.0, size=6)
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 0.5
            roots = numkit.poly_roots(coeffs)
            assert roots.size == 5
            scale = 1.0 + np.max(np.abs(coeffs))
            residual = max(abs(np.polyval(coeffs[::-1], r)) for r in roots)
            assert residual / scale <= 1e-9

    def test_conjugate_pairing(self, rng):
        for _ in range(50):
            coeffs = rng.uniform(-2.0, 2.0, size=6)
            coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
            roots = list(numkit.poly_roots(coeffs))
            complexes = [r for r in roots if abs(r.imag) > 1e-9]
            for r in complexes:
                assert any(abs(other - r.conjugate()) <= 1e-9 for other in complexes)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(numkit.DomainError):
            numkit.poly_roots([0.0, 0.0])
        with pytest.raises(numkit.DomainError):
            numkit.poly_roots([3.0])
        with pytest.raises(numkit.DomainError):
            numkit.poly_roots([1.0] + [0.0] * 8 + [1.0])  # degree 9
        with pytest.raises(numkit.DomainError, match="flat sequence"):
            numkit.poly_roots([[1.0, 1.0], [1.0, 1.0]])
        # not numpy's LinAlgError, nor the root 0 of a leading inf
        for coeffs in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(numkit.DomainError, match="must be finite"):
                numkit.poly_roots(coeffs)

    def test_trailing_zero_trimming(self):
        # (x + 1) padded with vanishing high-order coefficients
        roots = numkit.poly_roots([1.0, 1.0, 0.0, 0.0])
        assert_multiset_close(roots, [-1.0], 1e-12)


class TestEigenvalues:
    def test_diagonal(self):
        m = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0])
        assert_multiset_close(numkit.eigenvalues(m), [-1, -2, -3, -4, -5], 1e-13)

    def test_matches_char_poly_roots(self, rng):
        for _ in range(100):
            m = rng.uniform(-2.0, 2.0, size=(5, 5))
            eigs = numkit.eigenvalues(m)
            roots = numkit.poly_roots(char_poly(m))
            assert_multiset_close(eigs, roots, 1e-7)

    def test_dimension_guards(self):
        with pytest.raises(numkit.DomainError):
            numkit.eigenvalues(np.zeros((2, 3)))
        with pytest.raises(numkit.DomainError):
            numkit.eigenvalues(np.zeros((9, 9)))
        with pytest.raises(numkit.DomainError, match="non-finite"):
            numkit.eigenvalues(np.diag([1.0, np.inf]))


class TestCharPoly:
    def test_diagonal_case(self):
        # (x - 1)(x - 2) = x^2 - 3x + 2
        np.testing.assert_allclose(
            char_poly(np.diag([1.0, 2.0])), [2.0, -3.0, 1.0], atol=1e-14
        )

    def test_companion_round_trip(self, rng):
        coeffs = np.append(rng.uniform(-1.5, 1.5, size=4), 1.0)
        m = numkit.companion_matrix(coeffs)
        np.testing.assert_allclose(char_poly(m), coeffs, atol=1e-12)


class TestGeometricMultiplicity:
    def test_identity(self):
        assert numkit.geometric_multiplicity(np.eye(3), 1.0) == 3

    def test_rotation_block(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert numkit.geometric_multiplicity(rot, 1j) == 1

    def test_one_rank_threshold(self):
        # singular values at or below 1e-7 count as zero
        assert list(inspect.signature(numkit.geometric_multiplicity).parameters) == [
            "m", "eigenvalue"]
        assert numkit.geometric_multiplicity([[0.0, 1e-7], [0.0, 0.0]], 0.0) == 2
        assert numkit.geometric_multiplicity([[0.0, 2e-7], [0.0, 0.0]], 0.0) == 1

    def test_double_rotation_block(self):
        m = np.zeros((4, 4))
        m[:2, :2] = [[0, 1], [-1, 0]]
        m[2:, 2:] = [[0, 1], [-1, 0]]
        assert numkit.geometric_multiplicity(m, 1j) == 2

    @pytest.mark.parametrize("eigenvalue", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_eigenvalue_rejected(self, eigenvalue):
        # not the LinAlgError of an SVD that does not converge
        with pytest.raises(numkit.DomainError, match="eigenvalue must be finite"):
            numkit.geometric_multiplicity(np.eye(2), eigenvalue)


class TestMittagLeffler:
    def test_zero_argument(self):
        assert numkit.mittag_leffler(0.3, 0.0) == 1.0
        assert numkit.mittag_leffler(1.0, 0.0) == 1.0

    def test_classical_exponential(self):
        for z in [-5.0, -2.0, -1.0, -0.25, 0.5, 2.0]:
            assert abs(numkit.mittag_leffler(1.0, z) - math.exp(z)) <= 1e-10

    def test_against_series_oracle(self):
        # frozen from the 50-digit 400-term series: E_0.65(-1)
        assert abs(numkit.mittag_leffler(0.65, -1.0) - 0.4063751283021174) <= 1e-12
        for alpha, z in [(0.65, -0.5), (0.65, -2.0), (0.8, -3.0), (0.5, -1.5)]:
            oracle = ml_series_oracle(alpha, z)
            assert abs(numkit.mittag_leffler(alpha, z) - oracle) <= 1e-11

    def test_extended_precision_region_matches_oracle(self):
        for alpha, z in [(0.65, -8.0), (0.8, -15.0), (1.0, -18.0)]:
            oracle = ml_series_oracle(alpha, z, terms=1200, dps=80)
            assert abs(numkit.mittag_leffler(alpha, z) - oracle) <= 1e-10

    def test_bounded_on_negative_axis(self):
        cases = [(a, z) for a in (0.55, 0.65, 0.8, 1.0) for z in (-0.5, -2.0, -8.0, -15.0)]
        cases += [(0.1, -0.5), (0.3, -1.0)]
        for alpha, z in cases:
            assert abs(numkit.mittag_leffler(alpha, z)) <= 1.0 + 1e-12

    def test_budget_exhaustion_flagged(self):
        # only z > 0 (and z < 0 below alpha = 0.01) uses the series and its budget
        with pytest.raises(numkit.DomainError):
            numkit.mittag_leffler(0.1, 3.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.floats(0.0, 0.01, exclude_min=True),
                     st.floats(0.0, 1.0, exclude_min=True),
                     st.sampled_from([5e-324, 0.01, math.nextafter(0.01, 0.0), 1.0,
                                      math.nextafter(1.0, 0.0)])),
           st.one_of(st.floats(-1e6, 20.0),
                     st.sampled_from([-1e6, -1.0, math.nextafter(-1.0, 0.0),
                                      math.nextafter(-1.0, -2.0), -5e-324, -0.0, 0.0, 5e-324,
                                      1.0, 20.0])))
    @example(0.005, -0.98855)
    @example(0.1, 3.0)
    @example(0.005, -1.0)
    def test_one_refusal_type(self, alpha, z):
        # a finite value or DomainError, whichever evaluator serves (alpha, z)
        try:
            value = numkit.mittag_leffler(alpha, z)
        except numkit.DomainError:
            return
        assert isinstance(value, float) and math.isfinite(value), value

    def test_small_order_and_large_argument_match_references(self):
        # the series cannot be summed at (0.1, -3) within its budget, nor safely past |z| = 20
        assert abs(numkit.mittag_leffler(0.1, -3.0) - ml_asymptotic_oracle(0.1, 3.0)) <= 1e-12
        oracle = ml_series80(0.65, -25.0)
        assert abs(numkit.mittag_leffler(0.65, -25.0) - oracle) <= 1e-12

    def test_domain_guards(self):
        for z in (math.nan, math.inf, -math.inf, 20.5):
            with pytest.raises(numkit.DomainError):
                numkit.mittag_leffler(0.65, z)
        with pytest.raises(numkit.DomainError):
            numkit.mittag_leffler(1.2, -1.0)
        with pytest.raises(numkit.DomainError):
            numkit.mittag_leffler(0.0, -1.0)
        # below alpha = 0.01 only the series is available, and it misses its bound at z = -1
        with pytest.raises(numkit.DomainError):
            numkit.mittag_leffler(0.005, -1.0)
        assert abs(numkit.mittag_leffler(0.005, -0.5) - ml_series80(0.005, -0.5)) <= 1e-15

    @pytest.mark.parametrize("alpha", ML_ALPHAS)
    def test_negative_axis_against_80_digit_series(self, alpha):
        checked = 0
        for z in (-1e-9, -0.3, -0.9, -1.7, -4.0, -7.0, -11.5, -16.0, -20.0):
            oracle = ml_series80(alpha, z)
            if oracle is not None:
                assert abs(numkit.mittag_leffler(alpha, z) - oracle) <= 1e-12, z
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("alpha", ML_ALPHAS[:8])
    def test_negative_axis_against_asymptotic_expansion(self, alpha):
        # where the series cannot be summed (small alpha) and far beyond z = -20,
        # at x where the expansion is accurate: near alpha = 1 that takes x >= 100
        xs = [1.5, 3.0, 10.0] if alpha < 0.2 else [30.0] if alpha < 0.9 else []
        xs += [100.0, 1e3, 1e4]
        for x in xs:
            oracle = ml_asymptotic_oracle(alpha, x)
            assert oracle is not None, x
            got = numkit.mittag_leffler(alpha, -x)
            assert abs(got - oracle) <= 1e-12 * abs(oracle), x

    def test_order_near_one(self):
        zs = (-1e-6, -0.5, -3.0, -9.0, -20.0)
        for gap in (1e-5, 1e-8, 1e-12):
            for z in zs:
                oracle = ml_series80(1.0 - gap, z)
                assert abs(numkit.mittag_leffler(1.0 - gap, z) - oracle) <= 1e-13, (gap, z)
        below_one = math.nextafter(1.0, 0.0)
        for z in zs:
            assert abs(numkit.mittag_leffler(below_one, z) - math.exp(z)) <= 1e-13
            assert numkit.mittag_leffler(1.0, z) == math.exp(z)

    def test_positive_axis_against_extended_precision(self):
        # the z > 0 cases the removed mpmath branch used to sum
        for alpha, z in [(0.65, 8.0), (0.8, 15.0), (0.55, 20.0), (0.9, 19.5), (0.35, 4.0)]:
            oracle = ml_series80(alpha, z)
            assert abs(numkit.mittag_leffler(alpha, z) - oracle) <= 1e-13 * oracle

    def test_extreme_arguments_finite(self):
        for alpha in (0.01, 0.05, 0.5, 0.65, 0.999, math.nextafter(1.0, 0.0)):
            for z in (-1e300, -1.7e308, -5e-324):
                value = numkit.mittag_leffler(alpha, z)
                assert math.isfinite(value) and 0.0 <= value <= 1.0
        # E_alpha(-x) ~ x^-1 / Gamma(1 - alpha): right in size even this far out
        far = numkit.mittag_leffler(0.5, -1e300)
        assert 1e-303 < far < 1e-298

    def test_repeatable_bit_for_bit(self):
        for alpha, z in [(0.1, -3.0), (0.65, -7.0), (0.999, -20.0), (0.65, 8.0)]:
            first = numkit.mittag_leffler(alpha, z)
            assert all(numkit.mittag_leffler(alpha, z) == first for _ in range(5))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.01, 1.0), st.floats(0.0, 1e300), st.floats(0.0, 1e300))
    def test_monotone_and_bounded_on_negative_axis(self, alpha, x1, x2):
        # the quadrature domain; below alpha = 0.01 only |z| < 1 is served
        assume(x1 != x2)
        x1, x2 = sorted((x1, x2))
        e1 = numkit.mittag_leffler(alpha, -x1)
        e2 = numkit.mittag_leffler(alpha, -x2)
        assert e2 <= e1 <= 1.0
        # exp(-x) underflows past x = 745 at alpha = 1
        assert e2 > 0.0 or (alpha == 1.0 and x2 > 745.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.65, 0.9999])
    def test_cached_nodes_equal_fresh_nodes_bitwise(self, alpha):
        numkit._ml_nodes.cache_clear()
        for z in (-0.5, -7.0, -1e300):
            numkit.mittag_leffler(alpha, z)
        assert numkit._ml_nodes.cache_info().hits == 2
        for cached, fresh in zip(numkit._ml_nodes(alpha), numkit._ml_nodes.__wrapped__(alpha)):
            assert bits(cached) == bits(fresh)

    def test_node_cache_is_bounded(self):
        for alpha in np.linspace(0.01, 0.99, 100):
            numkit.mittag_leffler(alpha, -2.0)
        info = numkit._ml_nodes.cache_info()
        assert info.currsize <= info.maxsize < 100

    def test_cached_nodes_are_read_only(self):
        for array in numkit._ml_nodes(0.65):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
