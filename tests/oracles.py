"""Reference implementations the tests compare the library against.

Each is written independently of the code path it checks: the scalar
quadrature weights of the ABM scheme against the solver's lag-weight
vectors, a central-difference Jacobian against the analytic ones, the
matrix form of the Maxwell-Bloch field against its componentwise form,
and the Faddeev-LeVerrier characteristic polynomial against the
eigenvalue routine. Tests import this module the way they import
`conftest`.
"""

import numpy as np

from fracdyn.maxbloch import A, A1, A2, jacobian
from fracdyn.numkit import _as_square
from fracdyn.systems import as_gains, as_state, validate_alpha


def _check_weight_index(j, n):
    if n < 0 or not 0 <= j <= n:
        raise IndexError(f"weight index j={j} outside 0..{n}")


def predictor_weight(j, n, alpha):
    """Predictor weight b[j, n+1]; equals 1 for every j when alpha = 1."""
    _check_weight_index(j, n)
    alpha = validate_alpha(alpha)
    return float(n + 1 - j) ** alpha - float(n - j) ** alpha


def corrector_weight(j, n, alpha):
    """Corrector weight a[j, n+1] with its separate j = 0 branch."""
    _check_weight_index(j, n)
    alpha = validate_alpha(alpha)
    if j == 0:
        return float(n) ** (alpha + 1.0) - (n - alpha) * float(n + 1) ** alpha
    d = float(n - j)
    return (d + 2.0) ** (alpha + 1.0) + d ** (alpha + 1.0) - 2.0 * (d + 1.0) ** (alpha + 1.0)


def finite_difference_jacobian(field, x, step=1e-6):
    """Central-difference Jacobian of a vector field at x.

    Serves as the independent consistency oracle for analytic Jacobians.
    """
    x = as_state(x)
    n = x.size
    out = np.empty((n, n))
    for j in range(n):
        offset = np.zeros(n)
        offset[j] = step
        hi = np.asarray(field(x + offset), dtype=float)
        lo = np.asarray(field(x - offset), dtype=float)
        out[:, j] = (hi - lo) / (2.0 * step)
    return out


def field_matrix_form(x):
    """Same field evaluated as A*x + x1*(A1*x) + x2*(A2*x).

    Agrees with `field` to rounding; the toolkit runs on the componentwise
    form and keeps this one as an equivalence oracle.
    """
    v = np.asarray(x, dtype=float)
    return A @ v + v[0] * (A1 @ v) + v[1] * (A2 @ v)


def controlled_jacobian(x, k):
    """Jacobian of the controlled model, J(x) - diag(k) (independent of x_e)."""
    return jacobian(x) - np.diag(as_gains(k, 5))


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
