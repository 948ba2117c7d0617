"""Small dense numerical kernels shared by the rest of the toolkit.

Polynomials are coefficient sequences in ascending degree order; matrices
are square numpy arrays of dimension at most 8. Everything here is a pure
function of its inputs and safe to call concurrently. `_fmt` is the float
format of every printed report and artifact.
"""

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "MAX_DEGREE",
    "companion_matrix",
    "poly_roots",
    "eigenvalues",
    "geometric_multiplicity",
    "mittag_leffler",
]

# Small dense problems only; every use in the toolkit has degree <= 5.
MAX_DEGREE = 8


class DomainError(ValueError):
    """Argument outside the supported domain of a kernel."""


class ConvergenceError(RuntimeError):
    """Series truncation target not met within the iteration budget."""


def _fmt(x):
    return f"{float(x):.17g}"


def _kv_join(pairs):
    return "\n".join(f"{k}={v}" for k, v in pairs)


def _sorted_complex(values):
    v = np.asarray(values, dtype=complex)
    order = np.lexsort((v.imag, v.real))
    return v[order]


def _trim_trailing_zeros(coeffs):
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1:
        raise DomainError("polynomial coefficients must be a flat sequence")
    nonzero = np.flatnonzero(c != 0.0)
    if nonzero.size == 0:
        raise DomainError("the zero polynomial has no defined roots")
    return c[: nonzero[-1] + 1]


def companion_matrix(coeffs):
    """Frobenius companion matrix of a polynomial (ascending coefficients).

    The characteristic polynomial of the result is the monic form of the
    input, so its eigenvalues are the polynomial's roots.
    """
    c = _trim_trailing_zeros(coeffs)
    degree = c.size - 1
    if degree < 1:
        raise DomainError("need degree >= 1 to build a companion matrix")
    if degree > MAX_DEGREE:
        raise DomainError(f"degree {degree} exceeds the supported maximum {MAX_DEGREE}")
    monic = c[:-1] / c[-1]
    m = np.zeros((degree, degree))
    if degree > 1:
        m[1:, :-1] = np.eye(degree - 1)
    m[:, -1] = -monic
    return m


def poly_roots(coeffs):
    """All complex roots, with multiplicity, of a real polynomial.

    Roots are computed as companion-matrix eigenvalues, which is uniform in
    the degree and robust at the small sizes used here. Complex roots of a
    real polynomial come back in conjugate pairs. The result is sorted by
    real part, then imaginary part.
    """
    return _sorted_complex(np.linalg.eigvals(companion_matrix(coeffs)))


def _as_square(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    n = a.shape[0]
    if not 1 <= n <= MAX_DEGREE:
        raise DomainError(f"matrix dimension {n} outside 1..{MAX_DEGREE}")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    return a


def eigenvalues(m):
    """Eigenvalues, with multiplicity, of a small dense real matrix (n <= 8)."""
    return _sorted_complex(np.linalg.eigvals(_as_square(m)))


def geometric_multiplicity(m, eigenvalue):
    """Eigenspace dimension of an eigenvalue: n - rank(M - lambda*I).

    The rank is the count of singular values above 1e-7, so the answer is
    meaningful for eigenvalues known only to roughly that accuracy.
    """
    a = _as_square(m)
    n = a.shape[0]
    shifted = a.astype(complex) - complex(eigenvalue) * np.eye(n)
    return int(n - np.linalg.matrix_rank(shifted, tol=1e-7))


# Mittag-Leffler evaluation, float64 throughout.
#
# z < 0: E_a(-x) is the Laplace transform of a positive kernel (Gorenflo,
# Kilbas, Mainardi & Rogosin, "Mittag-Leffler Functions", Springer 2014);
# with v = r^a,
#     E_a(-x) = sin((1-a)pi)/(a pi) * int_0^inf exp(-(x v)^(1/a)) dv
#                                   / ((v-1)^2 + 4 v sin^2((1-a)pi/2)),
# a sum of positive terms with no cancellation. The denominator is the
# textbook v^2 + 2 v cos(a pi) + 1 rewritten so that it keeps its accuracy
# as a -> 1 (v - 1 comes from expm1). The trapezoid rule runs in w, with
# v = exp(delta sinh w): delta = min((1-a)pi, 1) gives the kernel peak at
# v = 1, of width (1-a)pi in log v, a width of about one in w, and the
# double-exponential map ends both tails. The step shrinks with a because
# the factor exp(-(x v)^(1/a)) turns from 1 to 0 over a width of about a in
# log v; below a = 0.01 the node count would pass 35000, so there only
# |z| < 1 is served, by the series. The window is fixed per a and reaches
# v = 1/x for every finite float x, so the nodes never depend on z: the
# result is positive and exactly non-increasing in |z|. Domain for z < 0:
# every finite z at a >= 0.01; error below 1e-12 absolute (about 1e-15
# measured), with no growth as a -> 1 since delta follows the peak; a = 1
# is exp(z).
#
# The power series serves z > 0, where every term is positive, and |z| < 1,
# where the terms shrink from the first and cannot cancel beyond it. The
# terms are rounded once or twice each and summed exactly (math.fsum).
_ML_MAX_Z = 20.0
_ML_MAX_TERMS = 1400
_ML_TAIL_LOG = math.log(1e-30)
_ML_MIN_QUAD_ALPHA = 0.01
_ML_STEP = 0.025             # trapezoid step in w for alpha >= 0.75
_ML_STEP_PER_ALPHA = 1 / 30  # step for smaller alpha: alpha / 30
_ML_KERNEL_LOG = 40.0        # kernel tails (~v and ~1/v) are < 1e-17 past |log v| = 40
_ML_FLOAT_LOG_MAX = 730.0    # log(1/v) that v = 1/x reaches for every float x, plus 20
_ML_NODE_CACHE = 8           # alphas whose nodes are kept; a study uses one


@functools.lru_cache(maxsize=_ML_NODE_CACHE)
def _ml_nodes(alpha):
    """Trapezoid nodes log v and weights of the negative-axis integral.

    Built once per alpha for the last _ML_NODE_CACHE alphas and returned
    read-only, since every caller shares them.
    """
    delta = min((1.0 - alpha) * math.pi, 1.0)
    step = min(_ML_STEP, alpha * _ML_STEP_PER_ALPHA)
    lo = math.floor(-math.asinh(_ML_FLOAT_LOG_MAX / delta) / step)
    hi = math.ceil(math.asinh(_ML_KERNEL_LOG / delta) / step)
    w = np.arange(lo, hi + 1) * step
    log_v = delta * np.sinh(w)
    v = np.exp(log_v)
    v_minus_1 = np.expm1(log_v)
    gap = 4.0 * math.sin((1.0 - alpha) * math.pi / 2.0) ** 2
    scale = math.sin((1.0 - alpha) * math.pi) / (alpha * math.pi) * step * delta
    weights = scale * np.cosh(w) * v / (v_minus_1 * v_minus_1 + gap * v)
    log_v.flags.writeable = weights.flags.writeable = False
    return log_v, weights


def _ml_negative(alpha, x):
    """E_alpha(-x) for x > 0 and 0.01 <= alpha < 1, by quadrature."""
    log_v, weights = _ml_nodes(alpha)
    with np.errstate(over="ignore"):  # (x v)^(1/alpha) = inf: the factor is 0
        decay = np.exp(-np.exp((math.log(x) + log_v) / alpha))
    return min(float(weights @ decay), 1.0)  # E_alpha(-x) <= 1; the sum may round above


def _ml_series(alpha, z):
    """E_alpha(z) by the power series, for 0 < z <= 20 or |z| < 1.

    log|term_j| is concave in j and starts at 0, so the first term below the
    tail cutoff bounds the whole remainder. The scan runs in log space before
    any term is formed, so a series that misses its budget raises
    ConvergenceError rather than overflowing on the way.
    """
    log_z = math.log(abs(z))
    n_terms = next((j + 1 for j in range(_ML_MAX_TERMS)
                    if j * log_z - math.lgamma(alpha * j + 1.0) <= _ML_TAIL_LOG), None)
    if n_terms is None:
        raise ConvergenceError(
            f"E_{alpha}({z}) series does not meet its truncation bound within {_ML_MAX_TERMS} terms"
        )
    terms = []
    try:
        for j in range(n_terms):
            if j * log_z < 709.0 and alpha * j < 170.0:
                terms.append(z ** j / math.gamma(alpha * j + 1.0))
            else:  # z**j or the gamma value overflows; exp loses |log term| * eps
                terms.append(math.exp(j * log_z - math.lgamma(alpha * j + 1.0)))
        return math.fsum(terms)
    except OverflowError:
        raise DomainError(f"E_{alpha}({z}) exceeds the float64 range") from None


def mittag_leffler(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) for real z <= 20.

    Domain: every finite z <= 0 for alpha >= 0.01, -1 < z <= 0 for smaller
    alpha, and 0 < z <= 20; anything else, NaN included, raises DomainError.
    alpha = 1 returns math.exp(z).

    For z < 0 and alpha >= 0.01 the absolute error is below 1e-12: measured
    below 1e-15 against an 80-digit series on z in [-20, 0] for alpha from
    0.05 to 0.9999, and as alpha -> 1 the bound does not grow (below 1e-15
    measured for alpha in (0.9999, 1)). The relative error stays below 1e-12
    down to z = -1e5; beyond that only the absolute bound holds, and the
    result stays positive and finite down to -1.8e308. Results never exceed
    1, never increase as z decreases and repeat bit for bit.

    For 0 < z <= 20 the series, summed in float64, agrees with an 80-digit
    sum to 1e-15 relative while its terms stay below 1e308 and to 1e-13
    beyond (8e-14 measured at alpha = 0.55, z = 19.5), where the terms are
    rounded in log space. ConvergenceError reports a series that does not
    meet its truncation bound within 1400 terms (_ML_MAX_TERMS), which
    happens for small alpha combined with z > 1, and for alpha < 0.01 with
    z just above -1 (alpha = 0.005 at z = -0.99, say).
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    z = float(z)
    if not -math.inf < z <= _ML_MAX_Z:
        raise DomainError(f"z must be finite and at most {_ML_MAX_Z}, got {z!r}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    if alpha >= _ML_MIN_QUAD_ALPHA and z < 0.0:
        return _ml_negative(alpha, -z)
    if z <= -1.0:
        raise DomainError(f"z < 0 needs |z| < 1 for alpha < {_ML_MIN_QUAD_ALPHA}, got {z!r}")
    return _ml_series(alpha, z)
