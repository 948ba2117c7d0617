"""Equilibrium stability classification for fractional-order systems.

The core test is the argument condition of Matignon: an equilibrium of a
system of order alpha is locally asymptotically stable iff every Jacobian
eigenvalue satisfies |arg(lambda)| > alpha*pi/2, and stable iff in
addition any eigenvalue sitting exactly on that ray has geometric
multiplicity one. Zero eigenvalues have arg 0 = 0 and therefore always
violate the condition; they are classified unstable rather than assigned
a margin.

Diagonal feedback on the Maxwell-Bloch model has a closed-form analysis
per equilibrium family: at (m, n, 0, 0, 0) a fractional Routh-Hurwitz test
on a monic cubic via its discriminant (`e1_gain_condition`), at
(0, 0, 0, 0, m) a split into a linear factor and two quadratics with the
catalogued gain windows C1..C5 (`e2_gain_condition`). Both cross-check
against the argument condition on explicit eigenvalues, which alone gives
the verdict. The e1 analysis runs in float64 from input to report; only
the e2 analysis keeps exact rationals. Every report renders itself:
`to_text` and `to_kv`.
"""

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit
from .numkit import _fmt, _kv_join, as_floats
from .systems import EQUILIBRIUM_TOL, as_gains, as_state, is_equilibrium, validate_alpha

__all__ = [
    "ZERO_TOL",
    "ARG_TOL",
    "Verdict",
    "RouthHurwitz",
    "EquilibriumReport",
    "matignon_margins",
    "matignon_classify",
    "classify_equilibrium",
    "stability_alpha_threshold",
    "CubicCoeffs",
    "cubic_from_gains",
    "routh_hurwitz_cubic",
    "E1GainReport",
    "e1_gain_condition",
    "E2GainReport",
    "e2_gain_condition",
]

# Eigenvalues with |lambda| below ZERO_TOL are treated as zero; margins
# within ARG_TOL of the critical ray count as critical.
ZERO_TOL = 1e-9
ARG_TOL = 1e-9


class Verdict(enum.Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    INDETERMINATE = "Indeterminate"

    def __str__(self):
        return self.value


def _yes_no(flag):
    return "yes" if flag else "no"


def _eig_text(lam):
    return f"{_fmt(lam.real)} {lam.imag:+.17g}i"


def _eig_pairs(i, lam):
    return [(f"eig_{i}_re", _fmt(lam.real)), (f"eig_{i}_im", _fmt(lam.imag))]


def _abs_args(eigs):
    """|arg(lambda)| per eigenvalue, None where |lambda| <= ZERO_TOL. An empty
    list raises ValueError, a non-finite eigenvalue DomainError."""
    values = as_floats(eigs, "eigenvalues must be finite", dtype=complex, finite=True).ravel()
    if values.size == 0:
        raise ValueError("eigenvalue list is empty")
    return tuple(None if abs(lam) <= ZERO_TOL else abs(cmath.phase(lam)) for lam in values)


def matignon_margins(eigs, alpha):
    """Per-eigenvalue margins |arg(lambda)| - alpha*pi/2, None for zeros.

    Conjugate eigenvalues get equal margins. Margins grow as alpha shrinks,
    so a configuration stable at some alpha stays stable at any smaller one.
    """
    half_ray = validate_alpha(alpha) * math.pi / 2.0
    return tuple(None if arg is None else arg - half_ray for arg in _abs_args(eigs))


def matignon_classify(eigs, alpha, jac=None):
    """Argument-condition verdict for a set of Jacobian eigenvalues.

    Without the Jacobian a configuration with critical eigenvalues cannot be
    resolved (the multiplicity check needs the matrix) and comes back
    Indeterminate.
    """
    margins = matignon_margins(eigs, alpha)
    if None in margins or min(margins) < -ARG_TOL:
        return Verdict.UNSTABLE
    if min(margins) > ARG_TOL:
        return Verdict.ASYMPTOTICALLY_STABLE
    if jac is None:
        return Verdict.INDETERMINATE
    critical = [lam for lam, m in zip(np.asarray(eigs, dtype=complex).ravel(), margins)
                if abs(m) <= ARG_TOL]
    if any(numkit.geometric_multiplicity(jac, lam) != 1 for lam in critical):
        return Verdict.UNSTABLE
    return Verdict.STABLE


def stability_alpha_threshold(eigs):
    """Supremum of fractional orders passed by every eigenvalue.

    Equals (2/pi) * min |arg(lambda)| over nonzero eigenvalues, and 0.0 when
    a zero eigenvalue is present. The configuration is asymptotically stable
    for every alpha strictly below the threshold (capped at 1 in practice).
    """
    args = _abs_args(eigs)
    return 0.0 if None in args else 2.0 * min(args) / math.pi


@dataclass(frozen=True)
class EquilibriumReport:
    """Classification of one equilibrium at one fractional order.

    margins holds |arg(lambda)| - alpha*pi/2 per eigenvalue, None where the
    eigenvalue is numerically zero; zero_eigs counts those.
    """

    point: tuple
    alpha: float
    eigenvalues: tuple
    margins: tuple
    verdict: Verdict
    zero_eigs: int

    def to_text(self):
        lines = [
            f"verdict: {self.verdict}",
            f"alpha: {_fmt(self.alpha)}",
            f"point: {' '.join(_fmt(v) for v in self.point)}",
            f"zero eigenvalues: {self.zero_eigs}",
            "eigenvalues (margin = |arg| - alpha*pi/2):",
        ]
        for lam, margin in zip(self.eigenvalues, self.margins):
            tag = "zero eigenvalue" if margin is None else f"margin {_fmt(margin)}"
            lines.append(f"  {_eig_text(lam)}  {tag}")
        return "\n".join(lines)

    def to_kv(self):
        pairs = [
            ("verdict", str(self.verdict)),
            ("alpha", _fmt(self.alpha)),
            ("dim", str(len(self.point))),
            ("zero_eigenvalues", str(self.zero_eigs)),
        ]
        pairs += [(f"point_{i}", _fmt(v)) for i, v in enumerate(self.point, start=1)]
        for i, (lam, margin) in enumerate(zip(self.eigenvalues, self.margins), start=1):
            pairs += _eig_pairs(i, lam)
            pairs.append((f"margin_{i}", "undefined" if margin is None else _fmt(margin)))
        return _kv_join(pairs)


def classify_equilibrium(sys, x_e, alpha):
    """Full report for an equilibrium of a system: eigenvalues, margins, verdict.

    A point where the field exceeds EQUILIBRIUM_TOL (max norm) is rejected.
    """
    point = as_state(x_e, sys.dim)
    if not is_equilibrium(sys, point):
        raise ValueError(
            f"point is not an equilibrium of {sys.name} (tolerance {EQUILIBRIUM_TOL:g})"
        )
    jac = np.asarray(sys.jacobian(point), dtype=float)
    eigs = numkit.eigenvalues(jac)
    margins = matignon_margins(eigs, alpha)
    return EquilibriumReport(
        point=tuple(float(v) for v in point),
        alpha=float(alpha),
        eigenvalues=tuple(complex(v) for v in eigs),
        margins=margins,
        verdict=matignon_classify(eigs, alpha, jac),
        zero_eigs=margins.count(None),
    )


@dataclass(frozen=True)
class CubicCoeffs:
    """Monic cubic x^3 + a1 x^2 + a2 x + a3 in float64 (ValueError beyond the
    float range). Its discriminant is inf or nan, never raising, beyond it,
    and reports print it as `undefined` there."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        coeffs = as_floats((self.a1, self.a2, self.a3), "cubic coefficient out of float range")
        for name, value in zip(("a1", "a2", "a3"), coeffs):
            object.__setattr__(self, name, value)

    @property
    def discriminant(self):
        a1, a2, a3 = self.a1, self.a2, self.a3
        with np.errstate(over="ignore", invalid="ignore"):
            return (18 * a1 * a2 * a3 + a1 ** 2 * a2 ** 2
                    - 4 * a3 * a1 ** 3 - 4 * a2 ** 3 - 27 * a3 ** 2)

    def polynomial(self):
        """Ascending coefficient sequence (a3, a2, a1, 1)."""
        return (self.a3, self.a2, self.a1, 1.0)


def cubic_from_gains(k3, k4, k5, m, n):
    """Cubic factor of the controlled characteristic polynomial at an
    equilibrium (m, n, 0, 0, 0) with (m, n) != (0, 0).

    Coefficients are a1 = k3 + k4 + k5, a2 = k3*k4 + k3*k5 + k4*k5 + m^2 + n^2
    and a3 = k3*k4*k5 + k3*n^2 + k4*m^2, in float64 whatever the input
    types; a coefficient beyond the float range raises DomainError. The
    discriminant may still overflow, which leaves Routh-Hurwitz NotDecided.
    """
    k3, k4, k5, m, n = as_floats((k3, k4, k5, m, n), "gains, m and n must be finite", finite=True)
    if k3 <= 0 or k4 <= 0 or k5 < 0:
        raise numkit.DomainError("gains must satisfy k3 > 0, k4 > 0, k5 >= 0")
    if m == 0 and n == 0:
        raise numkit.DomainError("m and n must not both vanish")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        cubic = CubicCoeffs(k3 + k4 + k5,
                            k3 * k4 + k3 * k5 + k4 * k5 + m * m + n * n,
                            k3 * k4 * k5 + k3 * n * n + k4 * m * m)
    if not np.isfinite((cubic.a1, cubic.a2, cubic.a3)).all():
        raise numkit.DomainError("gains, m or n too large: the cubic is not finite")
    return cubic


class RouthHurwitz(enum.Enum):
    """Outcome of the fractional Routh-Hurwitz cubic test."""

    STABLE_ALL_ALPHA = "StableAllAlpha01"
    STABLE_BELOW_TWO_THIRDS = "StableAlphaBelowTwoThirds"
    NOT_DECIDED = "NotDecided"

    def __str__(self):
        return self.value

    @property
    def alpha_range(self):
        """Guaranteed stability range as text, None when undecided."""
        if self is RouthHurwitz.STABLE_ALL_ALPHA:
            return "(0, 1)"
        if self is RouthHurwitz.STABLE_BELOW_TWO_THIRDS:
            return "(0, 2/3)"
        return None


def routh_hurwitz_cubic(coeffs):
    """Root-free stability ranges for a monic cubic; never raises.

    Positive discriminant together with a1*a2 > a3 certifies stability for
    every order in (0, 1); negative discriminant certifies orders below 2/3.
    Anything else (a coefficient not positive, a discriminant zero or beyond
    the float range) is NotDecided, for the argument test on explicit roots
    to decide; `alpha_range` names the orders the result certifies.
    """
    d = coeffs.discriminant
    if not (coeffs.a1 > 0 and coeffs.a2 > 0 and coeffs.a3 > 0 and math.isfinite(d)):
        return RouthHurwitz.NOT_DECIDED
    if d > 0 and coeffs.a1 * coeffs.a2 > coeffs.a3:
        return RouthHurwitz.STABLE_ALL_ALPHA
    if d < 0:
        return RouthHurwitz.STABLE_BELOW_TWO_THIRDS
    return RouthHurwitz.NOT_DECIDED


class _GainReport:
    """Shared rendering of the gain reports: the family's head, eigenvalues,
    the family's tail, the argument-test threshold and, given an order, the
    verdict. Subclasses supply `eigenvalues`, `_text_sections()` and
    `_kv_sections()`, each returning (head, tail)."""

    @property
    def alpha_threshold(self):
        return stability_alpha_threshold(self.eigenvalues)

    def verdict(self, alpha):
        return matignon_classify(self.eigenvalues, alpha)

    def to_text(self, alpha=None):
        head, tail = self._text_sections()
        threshold = self.alpha_threshold
        bound = ("unstable at every order" if threshold <= 0.0
                 else "stable for every alpha in (0, 1]" if threshold >= 1.0
                 else f"stable for alpha < {_fmt(threshold)}")
        lines = [*head, "eigenvalues:", *(f"  {_eig_text(lam)}" for lam in self.eigenvalues),
                 *tail, f"argument-test threshold: {bound}"]
        if alpha is not None:
            lines.append(f"verdict at alpha = {_fmt(validate_alpha(alpha))}: "
                         f"{self.verdict(alpha)}")
        return "\n".join(lines)

    def to_kv(self, alpha=None):
        head, tail = self._kv_sections()
        pairs = list(head)
        for i, lam in enumerate(self.eigenvalues, start=1):
            pairs += _eig_pairs(i, lam)
        pairs += [*tail, ("alpha_threshold", _fmt(self.alpha_threshold))]
        if alpha is not None:
            pairs += [("alpha", _fmt(validate_alpha(alpha))), ("verdict", str(self.verdict(alpha)))]
        return _kv_join(pairs)


@dataclass(frozen=True, eq=False)
class E1GainReport(_GainReport):
    """Closed-form analysis of diagonal feedback at a point (m, n, 0, 0, 0).

    The characteristic polynomial is (lambda + k1)(lambda + k2) times the
    cubic of `cubic_from_gains`; `routh_hurwitz`, derived from it, is a
    diagnostic, and the verdict is the argument test on -k1, -k2 and its roots.
    """

    m: float
    n: float
    cubic: CubicCoeffs
    eigenvalues: tuple

    @property
    def routh_hurwitz(self):
        return routh_hurwitz_cubic(self.cubic)

    def _discriminant_text(self):
        d = self.cubic.discriminant
        return _fmt(d) if math.isfinite(d) else "undefined"

    def _text_sections(self):
        c, rh = self.cubic, self.routh_hurwitz
        covered = rh.alpha_range
        guarantee = f" (guaranteed stable for alpha in {covered})" if covered else ""
        return [
            f"equilibrium family e1, m = {_fmt(self.m)}, n = {_fmt(self.n)}",
            f"a1 = {_fmt(c.a1)}   a2 = {_fmt(c.a2)}   a3 = {_fmt(c.a3)}",
            f"D(P) = {self._discriminant_text()}",
            f"routh-hurwitz: {rh}{guarantee}",
        ], []

    def _kv_sections(self):
        c, rh = self.cubic, self.routh_hurwitz
        return [("family", "e1"), ("m", _fmt(self.m)), ("n", _fmt(self.n)),
                ("a1", _fmt(c.a1)), ("a2", _fmt(c.a2)), ("a3", _fmt(c.a3)),
                ("discriminant", self._discriminant_text()), ("routh_hurwitz", str(rh)),
                ("alpha_range", rh.alpha_range or "undecided")], []


def e1_gain_condition(k, m, n):
    """Evaluate the closed-form gain analysis at (m, n, 0, 0, 0).

    Gains must pass `systems.as_gains` (finite, non-negative), and the
    cubic needs k3 > 0, k4 > 0 and m, n finite, not both zero. All of it
    runs in float64, so the Routh-Hurwitz range is NotDecided where a2 or
    a3 underflows to 0.
    """
    k1, k2, k3, k4, k5 = as_gains(k, 5)
    cubic = cubic_from_gains(k3, k4, k5, m, n)
    roots = numkit.poly_roots(cubic.polynomial())
    eigs = (complex(-k1), complex(-k2)) + tuple(complex(r) for r in roots)
    return E1GainReport(m, n, cubic, eigs)


@dataclass(frozen=True, eq=False)
class E2GainReport(_GainReport):
    """Closed-form analysis of diagonal feedback at a point (0, 0, 0, 0, m).

    The characteristic polynomial splits into (lambda + k5) and the two
    quadratics lambda^2 + (k1 + k3)*lambda + k1*k3 - m and
    lambda^2 + (k2 + k4)*lambda + k2*k4 - m, giving the discriminants
    delta1 = (k1 - k3)^2 + 4m and delta2 = (k2 - k4)^2 + 4m together with
    the corner values u = -(k1 - k3)^2 / 4 and v = -(k2 - k4)^2 / 4.

    `conditions` evaluates the five catalogued stability windows C1..C5
    exactly as stated; `case_condition` is the window belonging to the
    active discriminant sign case. Both are diagnostics. The verdict
    is always the argument test on the closed-form eigenvalues, and
    `stable_all_alpha` (stability for every order up to 1) is equivalent to
    all eigenvalues having negative real part.
    """

    gains: tuple
    m: object
    delta1: object
    delta2: object
    u: object
    v: object
    eigenvalues: tuple
    conditions: dict
    case: str
    case_condition: Optional[bool]
    disagreement: bool
    stable_all_alpha: bool

    def _text_sections(self):
        held = [k for k, v in self.conditions.items() if v] or ["none"]
        tail = [f"catalogued conditions held: {', '.join(held)} (sign case {self.case})"]
        if self.disagreement:
            tail.append("note: catalogued conditions disagree with the eigenvalue "
                        "verdict; the eigenvalue verdict is authoritative")
        tail.append(f"stable for all alpha in (0, 1]: {_yes_no(self.stable_all_alpha)}")
        return [
            f"equilibrium family e2, m = {_fmt(self.m)}",
            f"delta1 = {_fmt(self.delta1)}   delta2 = {_fmt(self.delta2)}",
            f"u = {_fmt(self.u)}   v = {_fmt(self.v)}",
        ], tail

    def _kv_sections(self):
        head = [("family", "e2"), ("m", _fmt(self.m)),
                ("delta1", _fmt(self.delta1)), ("delta2", _fmt(self.delta2)),
                ("u", _fmt(self.u)), ("v", _fmt(self.v))]
        tail = [(f"condition_{k}", _yes_no(v)) for k, v in self.conditions.items()]
        window = "n/a" if self.case_condition is None else _yes_no(self.case_condition)
        tail += [("case", self.case), ("case_condition", window),
                 ("disagreement", _yes_no(self.disagreement)),
                 ("stable_all_alpha", _yes_no(self.stable_all_alpha))]
        return head, tail


def e2_gain_condition(k, m):
    """Evaluate the closed-form gain analysis at (0, 0, 0, 0, m).

    All five gains must be strictly positive. Arithmetic on the reported
    quantities is plain Python, so exact rational inputs give exact
    rational delta1, delta2, u, v. The eigenvalues are taken in floats, so
    a gain, m, delta1, delta2, u or v beyond the float range raises
    DomainError, exact or not.
    """
    gains = tuple(k)
    if len(gains) != 5:
        raise numkit.DomainError("expected five feedback gains")
    if any(not 0 < g < math.inf for g in gains) or not -math.inf < m < math.inf:
        raise numkit.DomainError("gains must be finite and strictly positive, m finite")
    f1, f2, f3, f4, f5, _ = as_floats(
        (*gains, m), "gains or m too large: they exceed the float range").tolist()
    k1, k2, k3, k4, k5 = gains

    too_large = "gains or m too large: delta1, delta2, u or v is not finite"
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        try:
            sq13, sq24 = (k1 - k3) ** 2, (k2 - k4) ** 2
            delta1, delta2 = sq13 + 4 * m, sq24 + 4 * m
            u, v = -sq13 / 4, -sq24 / 4
        except OverflowError:  # a float `**`, or an int `/`, beyond the float range
            raise numkit.DomainError(too_large) from None
    d1, d2, _, _ = as_floats((delta1, delta2, u, v), too_large, finite=True).tolist()

    s1, s2 = cmath.sqrt(complex(d1, 0.0)), cmath.sqrt(complex(d2, 0.0))
    p13, p24 = f1 + f3, f2 + f4
    eigs = (
        complex(-f5, 0.0),
        (-p13 + s1) / 2.0,
        (-p13 - s1) / 2.0,
        (-p24 + s2) / 2.0,
        (-p24 - s2) / 2.0,
    )

    conditions = {
        "C1": bool(abs(k1 - k3) == abs(k2 - k4) and m == u and m != 0),
        "C2": bool(max(u, v) < m < min(k1 * k3, k2 * k4)),
        "C3": bool(u < m < min(v, k1 * k3)),
        "C4": bool(v < m < min(u, k2 * k4)),
        "C5": bool(m < min(u, v)),
    }

    if delta1 == 0 and delta2 == 0:
        case, window = "both_zero", True
    elif delta1 > 0 and delta2 > 0:
        case, window = "both_positive", conditions["C2"]
    elif delta1 > 0 and delta2 < 0:
        case, window = "pos_neg", conditions["C3"]
    elif delta1 < 0 and delta2 > 0:
        case, window = "neg_pos", conditions["C4"]
    elif delta1 < 0 and delta2 < 0:
        case, window = "both_negative", conditions["C5"]
    else:
        # exactly one discriminant on its zero boundary: not catalogued
        case, window = "boundary", None

    stable = all(lam.real < 0.0 for lam in eigs)
    catalogued = any(conditions.values())
    disagreement = (catalogued != stable) or (window is not None and window != stable)

    return E2GainReport(
        gains=gains,
        m=m,
        delta1=delta1,
        delta2=delta2,
        u=u,
        v=v,
        eigenvalues=eigs,
        conditions=conditions,
        case=case,
        case_condition=window,
        disagreement=disagreement,
        stable_all_alpha=stable,
    )
