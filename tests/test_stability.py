import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import e1_sign_scan
from conftest import assert_multiset_close, bits
from fracdyn import maxbloch, numkit
from fracdyn.stability import (
    CubicCoeffs,
    RouthHurwitz,
    Verdict,
    classify_equilibrium,
    cubic_from_gains,
    e1_gain_condition,
    e2_gain_condition,
    matignon_classify,
    matignon_margins,
    routh_hurwitz_cubic,
    stability_alpha_threshold,
)
from fracdyn.systems import controlled
from oracles import controlled_jacobian

# closed-form eigenvalues for gains (1/4, 3/2, 1/4, 2/3, 1) at m = -1/8
REFERENCE_E2_EIGS = [
    -1.0,
    -0.25 + 1j * math.sqrt(2.0) / 4.0,
    -0.25 - 1j * math.sqrt(2.0) / 4.0,
    (-13.0 + math.sqrt(7.0)) / 12.0,
    (-13.0 - math.sqrt(7.0)) / 12.0,
]


class TestMatignon:
    def test_single_negative_real(self):
        assert matignon_classify([-1.0], 0.9) is Verdict.ASYMPTOTICALLY_STABLE

    def test_zero_eigenvalues_force_instability(self):
        for alpha in (0.3, 0.65, 1.0):
            eigs = [0.0, 0.0, 0.0, 5j, -5j]
            assert matignon_classify(eigs, alpha) is Verdict.UNSTABLE
        assert matignon_classify([0.0, -1.0], 0.5) is Verdict.UNSTABLE

    @pytest.mark.parametrize("alpha", (0.3, 0.65, 1.0))
    def test_reference_gain_spectrum_is_stable(self, alpha):
        assert matignon_classify(REFERENCE_E2_EIGS, alpha) is Verdict.ASYMPTOTICALLY_STABLE

    def test_positive_real_eigenvalue_unstable(self):
        assert matignon_classify([-1.0, 0.5], 0.65) is Verdict.UNSTABLE

    def test_critical_pair_needs_the_jacobian(self):
        # arg(+-i) = pi/2, exactly on the ray at alpha = 1
        assert matignon_classify([1j, -1j], 1.0) is Verdict.INDETERMINATE

    def test_critical_pair_with_simple_blocks_is_stable(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert matignon_classify([1j, -1j], 1.0, jac=rot) is Verdict.STABLE

    def test_critical_pair_with_repeated_blocks_is_unstable(self):
        m = np.zeros((4, 4))
        m[:2, :2] = [[0, 1], [-1, 0]]
        m[2:, 2:] = [[0, 1], [-1, 0]]
        eigs = numkit.eigenvalues(m)
        assert matignon_classify(eigs, 1.0, jac=m) is Verdict.UNSTABLE

    def test_margins_and_conjugate_symmetry(self, rng):
        for _ in range(50):
            re, im = rng.uniform(-2.0, 2.0, 2)
            lam = complex(re, im)
            margins = matignon_margins([lam, lam.conjugate()], 0.65)
            if margins[0] is None:
                assert margins[1] is None
            else:
                assert abs(margins[0] - margins[1]) <= 1e-12

    def test_margin_value(self):
        (margin,) = matignon_margins([-1.0], 0.9)
        assert abs(margin - (math.pi - 0.45 * math.pi)) <= 1e-15

    def test_stability_persists_for_smaller_alpha(self):
        eigs = REFERENCE_E2_EIGS
        assert matignon_classify(eigs, 0.8) is Verdict.ASYMPTOTICALLY_STABLE
        for smaller in (0.4, 0.1, 0.01):
            assert matignon_classify(eigs, smaller) is Verdict.ASYMPTOTICALLY_STABLE

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            matignon_classify([], 0.5)


class TestAlphaThreshold:
    def test_zero_eigenvalue_gives_zero(self):
        assert stability_alpha_threshold([0.0, -1.0]) == 0.0

    def test_critical_ray_value(self):
        # roots -0.25 +- i*sqrt(3)/4 sit exactly on |arg| = 2*pi/3
        lam = complex(-0.25, math.sqrt(3.0) / 4.0)
        threshold = stability_alpha_threshold([lam, lam.conjugate(), -0.5])
        assert abs(threshold - 4.0 / 3.0) <= 1e-12

    def test_negative_reals_allow_everything(self):
        assert stability_alpha_threshold([-1.0, -2.0]) == pytest.approx(2.0)


class TestCubic:
    def test_discriminant_recompute_self_consistency(self):
        c = CubicCoeffs(1.0, 0.5, 0.125)
        assert c.discriminant == -3.0 / 64.0
        assert c.polynomial() == (0.125, 0.5, 1.0, 1.0)

    def test_from_gains_reference_case(self):
        # k3 = k4 = 1/2, k5 = 0 on the circle m^2 + n^2 = 1/4
        for m, n in [(0.5, 0.0), (0.0, 0.5)]:
            c = cubic_from_gains(0.5, 0.5, 0.0, m, n)
            assert (c.a1, c.a2, c.a3) == (1.0, 0.5, 0.125)
            assert c.discriminant == -3.0 / 64.0

    def test_from_gains_exact_fractions(self):
        # computed in float64, which holds these dyadic values exactly
        c = cubic_from_gains(Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert c.a3 == Fraction(1, 8)
        assert c.discriminant == Fraction(-3, 64)

    def test_equal_gain_family_closed_form(self, rng):
        # with k3 = k4 = b, k5 = 0: coefficients (2b, b^2 + s, b*s), s = m^2 + n^2
        for _ in range(100):
            b = rng.uniform(0.1, 3.0)
            m, n = rng.uniform(-1.5, 1.5, 2)
            s = m * m + n * n
            if s < 1e-3:
                continue
            c = cubic_from_gains(b, b, 0.0, m, n)
            assert c.a1 == b + b
            assert abs(c.a2 - (b * b + s)) <= 1e-14 * (1.0 + abs(c.a2))
            expected_d = s ** 2 * (b * b - 4.0 * s)
            assert abs(c.discriminant - expected_d) <= 1e-10 * max(1.0, abs(expected_d))

    def test_from_gains_guards(self):
        with pytest.raises(numkit.DomainError):
            cubic_from_gains(0.0, 0.5, 0.0, 0.5, 0.0)
        with pytest.raises(numkit.DomainError, match="must not both vanish"):
            cubic_from_gains(0.5, 0.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("m", [1e103, np.float64(1e103)], ids=["float", "float64"])
    def test_from_gains_discriminant_beyond_the_float_range(self, m):
        # a1, a2 and a3 are finite and a2 ** 2 is not: both input types
        # compute in float64, where it comes out inf, and are accepted alike
        c = cubic_from_gains(0.5, 0.5, 0.0, m, 0.0)
        assert (c.a1, c.a2, c.a3) == (1.0, 0.25 + 1e103 * 1e103, 0.5 * 1e103 * 1e103)
        assert not math.isfinite(c.discriminant)
        assert routh_hurwitz_cubic(c) is RouthHurwitz.NOT_DECIDED

    def test_from_gains_with_squares_below_the_float_range(self):
        # m^2 underflows to 0, and m still does not vanish
        c = cubic_from_gains(0.5, 0.5, 0.1, 1e-200, 0.0)
        assert c.a2 == 0.5 * 0.5 + 0.5 * 0.1 + 0.5 * 0.1
        assert c.a3 == 0.5 * 0.5 * 0.1

    @pytest.mark.parametrize("k, m, n", [
        ([Fraction(10**400), 1, 1, 1, 1], 0.5, 0.25),
        ([1, 1, 1, 1, 10**400], 0.5, 0.25),
        ([1, 1, 1, 1, 1], Fraction(10**400), 0.25),
        ([1, 1, 1, 1, 1], 0.5, -10**400),
    ], ids=["k1", "k5", "m", "n"])
    def test_exact_inputs_beyond_the_float_range(self, k, m, n):
        # ValueError, which DomainError is, not the OverflowError of float()
        with pytest.raises(ValueError, match="must be finite"):
            e1_gain_condition(k, m, n)


class TestRouthHurwitz:
    def test_negative_discriminant_branch(self):
        result = routh_hurwitz_cubic(CubicCoeffs(1.0, 0.5, 0.125))
        assert result is RouthHurwitz.STABLE_BELOW_TWO_THIRDS
        assert result.alpha_range == "(0, 2/3)"

    def test_direct_negative_discriminant_example(self):
        c = CubicCoeffs(3.0, 4.0, 2.0)
        # 18*24 + 144 - 216 - 256 - 108 = -4
        assert c.discriminant == -4.0
        assert routh_hurwitz_cubic(c) is RouthHurwitz.STABLE_BELOW_TWO_THIRDS

    def test_positive_discriminant_branch(self):
        c = cubic_from_gains(3.0, 3.0, 0.0, 1.0, 0.0)
        assert c.discriminant == pytest.approx(5.0)
        result = routh_hurwitz_cubic(c)
        assert result is RouthHurwitz.STABLE_ALL_ALPHA
        assert result.alpha_range == "(0, 1)"

    def test_zero_discriminant_not_decided(self):
        # (x + 1)^2 (x + 2) has a repeated root
        c = CubicCoeffs(4.0, 5.0, 2.0)
        assert c.discriminant == 0.0
        assert routh_hurwitz_cubic(c) is RouthHurwitz.NOT_DECIDED
        assert RouthHurwitz.NOT_DECIDED.alpha_range is None

    def test_sign_preconditions_enforced(self):
        # a coefficient that is not positive leaves the test undecided; with
        # a1 = -1 the discriminant alone would certify orders below 2/3
        assert CubicCoeffs(-1.0, 0.5, 0.125).discriminant < 0
        for coeffs in [(1.0, -0.5, 0.125), (-1.0, 0.5, 0.125), (1.0, 0.5, 0.0)]:
            assert routh_hurwitz_cubic(CubicCoeffs(*coeffs)) is RouthHurwitz.NOT_DECIDED

    def test_discriminant_beyond_the_float_range_not_decided(self):
        # a2 ** 2 overflows: the discriminant is NaN, not an OverflowError
        c = CubicCoeffs(1.0, 1e200, 1.0)
        assert math.isnan(c.discriminant)
        assert routh_hurwitz_cubic(c) is RouthHurwitz.NOT_DECIDED

    def test_agrees_with_argument_test(self, rng):
        checked = 0
        for _ in range(200):
            k3, k4, k5 = rng.uniform(0.05, 2.0, 3)
            m, n = rng.uniform(-1.5, 1.5, 2)
            if m * m + n * n < 1e-3:
                continue
            cubic = cubic_from_gains(k3, k4, k5, m, n)
            result = routh_hurwitz_cubic(cubic)
            roots = numkit.poly_roots(cubic.polynomial())
            if result is RouthHurwitz.STABLE_ALL_ALPHA:
                alphas = (0.1, 0.5, 0.9, 0.99)
            elif result is RouthHurwitz.STABLE_BELOW_TWO_THIRDS:
                alphas = (0.1, 0.5, 0.6)
            else:
                continue
            for alpha in alphas:
                assert matignon_classify(roots, alpha) is Verdict.ASYMPTOTICALLY_STABLE
            checked += 1
        assert checked >= 100


class TestE2GainAnalysis:
    def test_reference_case_exact_fractions(self):
        k = (Fraction(1, 4), Fraction(3, 2), Fraction(1, 4), Fraction(2, 3), Fraction(1))
        rep = e2_gain_condition(k, Fraction(-1, 8))
        assert rep.delta1 == Fraction(-1, 2)
        assert rep.delta2 == Fraction(7, 36)
        assert rep.u == 0
        assert rep.v == Fraction(-25, 144)
        assert rep.conditions == {"C1": False, "C2": False, "C3": False,
                                  "C4": True, "C5": False}
        assert rep.case == "neg_pos"
        assert rep.case_condition is True
        assert not rep.disagreement
        assert rep.stable_all_alpha
        assert_multiset_close(rep.eigenvalues, REFERENCE_E2_EIGS, 1e-12)
        for alpha in (0.3, 0.65, 1.0):
            assert rep.verdict(alpha) is Verdict.ASYMPTOTICALLY_STABLE

    def test_reference_case_floats(self):
        rep = e2_gain_condition((0.25, 1.5, 0.25, 2.0 / 3.0, 1.0), -0.125)
        assert rep.delta1 == -0.5
        assert rep.conditions["C4"]
        assert rep.stable_all_alpha

    def test_real_window_case(self):
        # k1 = k3, k2 = k4 with 0 < m < min(k1*k3, k2*k4): all real negative
        rep = e2_gain_condition((1.0, 1.0, 1.0, 1.0, 2.0), 0.5)
        assert rep.case == "both_positive"
        assert rep.conditions["C2"]
        assert rep.stable_all_alpha
        assert all(abs(lam.imag) == 0.0 for lam in rep.eigenvalues)

    def test_fully_complex_case(self):
        rep = e2_gain_condition((1.0, 1.0, 1.0, 1.0, 1.0), -1.0)
        assert rep.case == "both_negative"
        assert rep.conditions["C5"]
        assert rep.stable_all_alpha
        assert_multiset_close(
            rep.eigenvalues, [-1.0, -1 + 1j, -1 - 1j, -1 + 1j, -1 - 1j], 1e-12
        )

    def test_double_boundary_disagreement_surfaced(self):
        # m = 0 with k1 = k3 and k2 = k4: spectrum {-k5, -k1, -k1, -k2, -k2} is
        # stable, yet no catalogued window holds (C1 demands m != 0)
        rep = e2_gain_condition((1.0, 2.0, 1.0, 2.0, 3.0), 0.0)
        assert rep.case == "both_zero"
        assert not any(rep.conditions.values())
        assert rep.stable_all_alpha
        assert rep.disagreement
        assert_multiset_close(rep.eigenvalues, [-3.0, -1.0, -1.0, -2.0, -2.0], 1e-12)

    def test_unstable_beyond_window(self):
        rep = e2_gain_condition((1.0, 1.0, 1.0, 1.0, 1.0), 2.0)
        assert not rep.stable_all_alpha
        assert not any(rep.conditions.values())
        assert not rep.disagreement
        assert rep.verdict(0.65) is Verdict.UNSTABLE

    def test_gain_guards(self):
        with pytest.raises(numkit.DomainError):
            e2_gain_condition((1.0, 1.0, 1.0, 1.0, 0.0), -0.125)
        with pytest.raises(numkit.DomainError):
            e2_gain_condition((1.0, 1.0, 1.0), -0.125)

    @pytest.mark.parametrize("k, m", [
        ([Fraction(10**400), 1, 1, 1, 1], 0),
        ([Fraction(10**400), 1, Fraction(10**400), 1, 1], 0),  # the deltas fit
        ([1, 1, 1, 1, 10**400], Fraction(-1, 8)),
        ([1, 1, 1, 1, 1], -10**400),
        ([10**400, 1, 1, 1, 1], 0),
        ([10**200, 1, 1, 1, 1], 0),  # an int u = -(k1 - k3)**2 / 4 overflows
    ], ids=["delta1", "k1-and-k3", "k5", "m", "k1-int", "u-int"])
    def test_exact_inputs_beyond_the_float_range(self, k, m):
        with pytest.raises(numkit.DomainError, match="too large"):
            e2_gain_condition(k, m)

    def test_exact_inputs_at_the_float_range_stay_exact(self):
        big = Fraction(10**300)
        rep = e2_gain_condition([big, 1, big, 1, 1], Fraction(-1, 8))
        assert rep.delta1 == Fraction(-1, 2) and rep.u == 0

    def test_closed_form_matches_numeric_eigenvalues(self, rng):
        for _ in range(200):
            k = rng.uniform(0.05, 2.0, 5)
            m = rng.uniform(-1.0, 1.0)
            rep = e2_gain_condition(tuple(k), m)
            jac = controlled_jacobian(maxbloch.e2(m), k)
            assert_multiset_close(rep.eigenvalues, numkit.eigenvalues(jac), 1e-8)


class TestE1GainAnalysis:
    def test_reference_case(self):
        rep = e1_gain_condition((1.2, 1.2, 0.5, 0.5, 0.0), 0.5, 0.0)
        assert (rep.cubic.a1, rep.cubic.a2, rep.cubic.a3) == (1.0, 0.5, 0.125)
        assert rep.routh_hurwitz is RouthHurwitz.STABLE_BELOW_TWO_THIRDS
        assert rep.eigenvalues[:2] == (-1.2, -1.2)
        assert rep.verdict(0.65) is Verdict.ASYMPTOTICALLY_STABLE

    def test_closed_form_matches_numeric_eigenvalues(self, rng):
        for _ in range(200):
            k = rng.uniform(0.05, 2.0, 5)
            m, n = rng.uniform(-1.0, 1.0, 2)
            rep = e1_gain_condition(k, m, n)
            jac = controlled_jacobian(maxbloch.e1(m, n), k)
            assert_multiset_close(rep.eigenvalues, numkit.eigenvalues(jac), 1e-8)

    @pytest.mark.parametrize("k", [(-1.0, 1.0, 0.5, 0.5, 0.0), (1.0, 1.0, 0.5, 0.5, -0.1),
                                   (1.0, math.nan, 0.5, 0.5, 0.0), (1.0, 1.0, 0.5, 0.5)])
    def test_gain_guards(self, k):
        with pytest.raises(ValueError):
            e1_gain_condition(k, 0.5, 0.0)


GAIN = st.floats(0.01, 3.0)
PARAM = st.floats(-3.0, 3.0)
ORDER = st.floats(1e-3, 1.0)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _scaled(mantissa):
    """Floats of every binary exponent from the subnormal 2^-1074 up to
    2^200, where the cubic's discriminant already overflows at times."""
    return st.builds(math.ldexp, mantissa, st.integers(-1073, 200))


SCALED = _scaled(st.floats(-1.0, 1.0))
SCALED_GAIN = _scaled(st.floats(0.0, 1.0))
POSITIVE_SCALED_GAIN = _scaled(st.floats(0.5, 1.0))
# any float, inf and nan included, biased towards the non-negative ones
# a gain must be; and any number: such a float, an int or a Fraction, at
# binary exponents well beyond the float range either way
ANY_FLOAT = st.one_of(st.floats(min_value=0.0), st.floats())
ANY_NUMBER = st.one_of(
    ANY_FLOAT,
    st.builds(lambda m, e: m << e, st.integers(-2**53, 2**53), st.integers(0, 1100)),
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
              st.integers(-2**53, 2**53), st.integers(-1200, 1100)),
)
# an e1 point at huge |m|, where companion-matrix roots alone lose the
# O(1) root: |m| = 10^U(10, 154.1) of either sign, n zero or up to |m|
HUGE_E1_POINT = st.builds(lambda e, sign: sign * 10.0 ** e,
                          st.floats(10.0, 154.1), st.sampled_from([-1.0, 1.0])).flatmap(
    lambda m: st.tuples(st.just(m), st.one_of(st.just(0.0),
                                              st.floats(-1.0, 1.0).map(lambda f: f * abs(m)))))
CASE_WINDOW = {"both_positive": "C2", "pos_neg": "C3", "neg_pos": "C4", "both_negative": "C5"}


def _assert_verdict_follows_threshold(verdict, threshold, alpha):
    """Asymptotically stable below the threshold and unstable above it, at
    alpha and at threshold -+ 1e-6 wherever those are orders in (0, 1]."""
    for a in (alpha, threshold - 1e-6, threshold + 1e-6):
        if 0.0 < a <= 1.0 and abs(a - threshold) > 5e-7:
            expected = Verdict.ASYMPTOTICALLY_STABLE if a < threshold else Verdict.UNSTABLE
            assert verdict(a) is expected, (a, threshold)


class TestGainReportProperties:
    @PROPERTY_SETTINGS
    @given(st.tuples(GAIN, GAIN, GAIN, GAIN, GAIN), PARAM)
    def test_e2_case_condition_is_its_catalogued_window(self, k, m):
        rep = e2_gain_condition(k, m)
        assume(rep.case in CASE_WINDOW)
        assert rep.case_condition is rep.conditions[CASE_WINDOW[rep.case]]

    @PROPERTY_SETTINGS
    @given(st.tuples(GAIN, GAIN, GAIN, GAIN, GAIN), PARAM, ORDER)
    def test_e2_verdict_follows_threshold(self, k, m, alpha):
        rep = e2_gain_condition(k, m)
        _assert_verdict_follows_threshold(rep.verdict, rep.alpha_threshold, alpha)

    @PROPERTY_SETTINGS
    @given(st.tuples(GAIN, GAIN, GAIN, GAIN, GAIN), PARAM, PARAM, ORDER)
    def test_e1_verdict_follows_threshold(self, k, m, n, alpha):
        assume(m * m + n * n > 1e-6)
        rep = e1_gain_condition(k, m, n)
        _assert_verdict_follows_threshold(rep.verdict, rep.alpha_threshold, alpha)

    @PROPERTY_SETTINGS
    @given(st.tuples(SCALED_GAIN, SCALED_GAIN, POSITIVE_SCALED_GAIN, POSITIVE_SCALED_GAIN,
                     SCALED_GAIN), SCALED, SCALED)
    @example((0.0, 0.0, 1e-200, 1e-200, 0.0), 1e-200, 0.0)  # a2 == a3 == 0
    def test_e1_report_never_refused(self, k, m, n):
        # only a cubic coefficient that overflows is refused, and a
        # coefficient that underflows to 0 leaves the range NotDecided
        assume(m != 0 or n != 0)
        try:
            rep = e1_gain_condition(k, m, n)
        except numkit.DomainError as exc:
            assert "the cubic is not finite" in str(exc)
            return
        rep.to_text()
        if rep.cubic.a2 == 0 or rep.cubic.a3 == 0:
            assert rep.routh_hurwitz is RouthHurwitz.NOT_DECIDED

    @PROPERTY_SETTINGS
    @given(st.tuples(*[st.floats(0.1, 3.0)] * 5), HUGE_E1_POINT)
    @example((1.2, 1.2, 0.5, 0.5, 0.0), (1e31, 0.0))  # the paper's gains
    # a Newton step that only had to lower |p| left the pair's real part near 0
    @example((1.2592956965624986, 1.3929893378341673, 2.8664363682631135, 2.5611826610683126,
              2.6313838601657533), (-2.1691805586282015e+28, -3.2450993637487835e+27))
    @example((2.1485504575398555, 2.9607545349034394, 2.0798968722236095, 1.2032797707425094,
              0.7691793735151783), (-2.4715800182801026e+35, 0.0))
    def test_e1_spectrum_at_huge_m(self, k, point):
        # a1 a2 > a3 > 0 exactly (Hurwitz), so every root of the cubic lies
        # in the left half-plane, whatever the size of m
        try:
            rep = e1_gain_condition(k, *point)
        except numkit.DomainError as exc:
            assert "the cubic is not finite" in str(exc)
            return
        c = rep.cubic
        assert c.a1 > 0 and c.a2 > 0 and c.a3 > 0
        assert Fraction(c.a1) * Fraction(c.a2) > Fraction(c.a3)
        roots = rep.eigenvalues[2:]
        assert all(r.real < 0 for r in roots)
        pairs = [r for r in roots if r.imag != 0]
        assert sorted(pairs, key=lambda r: (r.real, r.imag)) == sorted(
            (r.conjugate() for r in pairs), key=lambda r: (r.real, r.imag))
        assert all(f"{r.imag:+g}" == "+0" for r in roots if r.imag == 0)
        assert rep.verdict(0.65) is Verdict.ASYMPTOTICALLY_STABLE

    def test_e1_sign_scan_against_mpmath(self):
        # the first 20 points of `python tests/e1_sign_scan.py` (3000 by default)
        counts = e1_sign_scan.scan(points=20)
        assert counts["accepted"] + counts["refused"] == 20
        assert counts["wrong_sign"] == 0 and counts["max_real_part_error"] <= 1e-15

    @PROPERTY_SETTINGS
    @given(st.tuples(*[ANY_NUMBER] * 5), ANY_NUMBER, ANY_NUMBER,
           st.tuples(*[ANY_NUMBER] * 3))
    @example((1, 1, 0.5, 0.5, 0), 10**200, 0, (1.0, 1e200, 1.0))
    @example((1, 1, 0.5, 0.5, 0), Fraction(10**200), 0, (10**400, 1, 1))
    @example((1, 1, 0.5, 0.5, 0), 1e103, 0.0, (1.0, 1.0, Fraction(1, 10**400)))
    def test_e1_entry_points_raise_only_value_errors(self, k, m, n, coeffs):
        # ints, Fractions and floats of every size, inf and nan among them:
        # only ValueError (DomainError is one) escapes, never OverflowError,
        # Routh-Hurwitz answers every cubic, and every report renders
        cubics = []
        for build in (lambda: cubic_from_gains(*k[2:], m, n),
                      lambda: e1_gain_condition(k, m, n).cubic,
                      lambda: CubicCoeffs(*coeffs)):
            try:
                cubics.append(build())
            except ValueError:
                pass
        for cubic in cubics:
            assert routh_hurwitz_cubic(cubic) in RouthHurwitz
        try:
            rep = e1_gain_condition(k, m, n)
        except ValueError:
            return
        rep.to_text(0.5)
        rep.to_kv()

    @PROPERTY_SETTINGS
    @given(st.tuples(*[ANY_FLOAT] * 5), ANY_FLOAT, ANY_FLOAT)
    @example((1.2, 1.2, 0.5, 0.5, 0.0), 1e103, 0.0)  # the discriminant overflows
    @example((1.2, 1.2, 0.5, 0.5, 0.0), 1e-200, 0.0)  # a3 underflows to 0
    def test_e1_python_and_numpy_floats_agree_bitwise(self, k, m, n):
        def outcome(cast):
            args = [cast(v) for v in k], cast(m), cast(n)
            try:
                cubic = cubic_from_gains(*args[0][2:], *args[1:])
                rep = e1_gain_condition(*args)
            except ValueError as exc:
                return str(exc)
            eigs = np.array(rep.eigenvalues)
            return (bits([cubic.a1, cubic.a2, cubic.a3, cubic.discriminant]),
                    bits([rep.cubic.a1, rep.cubic.a2, rep.cubic.a3, rep.cubic.discriminant]),
                    bits(eigs.real), bits(eigs.imag), rep.to_kv(0.5))

        assert outcome(float) == outcome(np.float64)

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(0.0, math.pi)),
                    min_size=1, max_size=3), ORDER)
    def test_threshold_splits_conjugate_spectra(self, polar, alpha):
        # positive gains keep both families' thresholds at 0 or above 1;
        # conjugate pairs at any angle put it anywhere in [0, 2]
        eigs = [cmath.rect(r, s * theta) for r, theta in polar for s in (1, -1)]
        threshold = stability_alpha_threshold(eigs)
        _assert_verdict_follows_threshold(
            lambda a: matignon_classify(eigs, a), threshold, alpha)


class TestClassifyEquilibrium:
    @pytest.mark.parametrize("point", [
        maxbloch.e1(1.0, 0.0),
        maxbloch.e1(0.3, -1.7),
        maxbloch.e2(-0.125),
        maxbloch.e2(1.0),
        maxbloch.e2(0.0),
    ])
    def test_uncontrolled_model_always_unstable(self, point):
        report = classify_equilibrium(maxbloch.system(), point, 0.65)
        assert report.verdict is Verdict.UNSTABLE

    def test_controlled_reference_configuration_stable(self):
        target = maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25)
        sys = maxbloch.controlled_system([1.2, 1.2, 0.5, 0.5, 0.0], target)
        report = classify_equilibrium(sys, target, 0.65)
        assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
        assert report.zero_eigs == 0

    def test_unit_gains_at_origin(self):
        sys = maxbloch.controlled_system(np.ones(5), maxbloch.e2(0.0))
        report = classify_equilibrium(sys, maxbloch.e2(0.0), 0.65)
        assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
        assert_multiset_close(report.eigenvalues, [-1.0] * 5, 1e-9)

    def test_non_equilibrium_rejected(self):
        with pytest.raises(ValueError):
            classify_equilibrium(maxbloch.system(), [1.0, 0.0, 1.0, 0.0, 0.0], 0.65)

    def test_zero_eigenvalue_margins_undefined(self):
        report = classify_equilibrium(maxbloch.system(), maxbloch.e1(1.0, 0.0), 0.65)
        assert report.zero_eigs == 3
        assert sum(1 for m in report.margins if m is None) == 3

    @pytest.mark.parametrize("gains, point, zeros", [
        (None, maxbloch.e2(0.0), 5),
        ([1.2, 1.2, 0.5, 0.5, 0.0], maxbloch.e1(1e-200, 0.0), 1),
        ([1.2, 1.2, 0.5, 0.5, 0.0], maxbloch.e1(math.sqrt(3.0) / 4.0, 0.25), 0),
    ])
    def test_zero_eigs_counts_the_undefined_margins(self, gains, point, zeros):
        sys = maxbloch.system() if gains is None else maxbloch.controlled_system(gains, point)
        report = classify_equilibrium(sys, point, 0.65)
        assert report.zero_eigs == report.margins.count(None) == zeros

    def test_report_serialization(self):
        target = maxbloch.e2(-0.125)
        sys = maxbloch.controlled_system([0.25, 1.5, 0.25, 2.0 / 3.0, 1.0], target)
        report = classify_equilibrium(sys, target, 0.65)
        text = report.to_text()
        assert "verdict: AsymptoticallyStable" in text
        assert "alpha: 0.65" in text
        kv = report.to_kv()
        entries = dict(line.split("=", 1) for line in kv.splitlines())
        assert entries["verdict"] == "AsymptoticallyStable"
        assert entries["zero_eigenvalues"] == "0"
        assert float(entries["eig_1_re"]) <= 0.0

        unstable = classify_equilibrium(maxbloch.system(), maxbloch.e1(1.0, 0.0), 0.65)
        entries = dict(line.split("=", 1) for line in unstable.to_kv().splitlines())
        assert entries["verdict"] == "Unstable"
        assert "undefined" in {entries[f"margin_{i}"] for i in range(1, 6)}

    def test_controlled_wrapper_path(self):
        # classify through the generic wrapper rather than the named model
        point = maxbloch.e2(-0.125)
        sys = controlled(maxbloch.system(), [0.25, 1.5, 0.25, 2.0 / 3.0, 1.0], point)
        report = classify_equilibrium(sys, point, 1.0)
        assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
        assert_multiset_close(report.eigenvalues, REFERENCE_E2_EIGS, 1e-12)
