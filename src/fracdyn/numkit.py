"""Small dense numerical kernels shared by the rest of the toolkit.

Polynomials are coefficient sequences in ascending degree order; matrices
are square numpy arrays of dimension at most 8. Everything here is a pure
function of its inputs and safe to call concurrently.
"""

import math

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "MAX_DEGREE",
    "gamma",
    "companion_matrix",
    "poly_roots",
    "eigenvalues",
    "char_poly",
    "geometric_multiplicity",
    "mittag_leffler",
]

# Small dense problems only; every use in the toolkit has degree <= 5.
MAX_DEGREE = 8


class DomainError(ValueError):
    """Argument outside the supported domain of a kernel."""


class ConvergenceError(RuntimeError):
    """Series truncation target not met within the iteration budget."""


def gamma(x):
    """Euler gamma function for positive real arguments.

    Negative and zero arguments are rejected; the integrator only ever
    needs values at alpha, alpha + 1 and alpha + 2 with alpha in (0, 1].
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


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


def char_poly(m):
    """Monic characteristic polynomial det(lambda*I - M), ascending coefficients.

    Uses the Faddeev-LeVerrier recursion, which shares no code with the
    eigenvalue routine; the eigenvalues-versus-roots cross check in the test
    suite relies on that independence.
    """
    a = _as_square(m)
    n = a.shape[0]
    eye = np.eye(n)
    coeffs_desc = [1.0]
    mk = np.zeros((n, n))
    for k in range(1, n + 1):
        mk = a @ mk + coeffs_desc[-1] * eye
        coeffs_desc.append(-np.trace(a @ mk) / k)
    return np.array(coeffs_desc[::-1])


def geometric_multiplicity(m, eigenvalue, rank_tol=1e-7):
    """Eigenspace dimension of an eigenvalue: n - rank(M - lambda*I).

    The rank is the singular-value count above rank_tol, so the answer is
    meaningful for eigenvalues known only to roughly that accuracy.
    """
    a = _as_square(m)
    n = a.shape[0]
    shifted = a.astype(complex) - complex(eigenvalue) * np.eye(n)
    return int(n - np.linalg.matrix_rank(shifted, tol=rank_tol))


# Mittag-Leffler evaluation. The power series converges for every argument,
# but for strongly negative z the terms grow huge before they decay and
# float64 summation loses everything to cancellation. Terms are scanned in
# log space first; if the peak magnitude is modest the series is summed in
# compensated float64, otherwise in mpmath at a precision sized to the peak.
_ML_MAX_ABS_Z = 20.0
_ML_FLOAT_PEAK_LOG = 9.0
_ML_TAIL_LOG = math.log(1e-30)


def _ml_scan(alpha, abs_z, max_terms):
    """Peak log term magnitude and the index where the tail is negligible.

    Term magnitudes are unimodal in j (log-concave), so the first index past
    the peak that clears the tail cutoff bounds the whole remainder.
    """
    log_z = math.log(abs_z)
    peak = 0.0
    for j in range(max_terms):
        log_term = j * log_z - math.lgamma(alpha * j + 1.0)
        if log_term > peak:
            peak = log_term
        elif log_term <= _ML_TAIL_LOG:
            return peak, j + 1
    return peak, None


def _ml_sum_float(alpha, z, n_terms):
    log_abs_z = math.log(abs(z))
    negative = z < 0.0
    total = 0.0
    comp = 0.0
    for j in range(n_terms):
        mag = math.exp(j * log_abs_z - math.lgamma(alpha * j + 1.0))
        term = -mag if (negative and j % 2) else mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _ml_sum_mp(alpha, z, n_terms, peak_log):
    import mpmath  # deferred: only large |z| needs it, and it slows every start-up

    digits = int(peak_log / math.log(10.0)) + 30
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for j in range(n_terms):
            total += zz ** j / mpmath.gamma(a * j + 1)
        return float(total)


def mittag_leffler(alpha, z, max_terms=1400):
    """One-parameter Mittag-Leffler function E_alpha(z) for real z, |z| <= 20.

    Evaluates sum_j z^j / gamma(alpha*j + 1) to roughly 1e-12 absolute
    accuracy for results of moderate size; at alpha = 1 this is exp(z).
    Raises ConvergenceError when the truncation bound cannot be met within
    the term budget, which happens for small alpha combined with |z| > 1.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    z = float(z)
    if abs(z) > _ML_MAX_ABS_Z:
        raise DomainError(f"|z| <= {_ML_MAX_ABS_Z} required, got {z!r}")
    if z == 0.0:
        return 1.0
    peak_log, n_terms = _ml_scan(alpha, abs(z), max_terms)
    if n_terms is None:
        raise ConvergenceError(
            f"E_{alpha}({z}) series does not meet its truncation bound "
            f"within {max_terms} terms"
        )
    if peak_log <= _ML_FLOAT_PEAK_LOG:
        return _ml_sum_float(alpha, z, n_terms)
    return _ml_sum_mp(alpha, z, n_terms, peak_log)
