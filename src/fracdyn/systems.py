"""System definitions for autonomous dynamics under a Caputo derivative.

A SystemDef packages a named vector field f on R^n together with its
Jacobian; the integrator, the stability classifiers and the command line
front end all consume this one abstraction. The `controlled` wrapper adds
the diagonal linear feedback -k*(x - x_e) used to stabilize an otherwise
unstable equilibrium.

Shape contract: a field takes one state of shape (n,) or a batch of B
states of shape (B, n) and returns an array of the same shape, row b
being f(x[b]); a Jacobian maps (n,) to (n, n) and (B, n) to (B, n, n).
Fields are evaluated row by row with elementwise operations, so a row of
a batch is bitwise equal to the single evaluation. The integrator builds
on this: a (B, n) initial state advances B runs of one system at once
(see `fracdyn.solver`), and a system whose parameters carry a batch axis
(see `controlled`) gives each run its own parameters.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SystemDef",
    "validate_alpha",
    "as_state",
    "as_states",
    "as_gains",
    "is_equilibrium",
    "controlled",
    "finite_difference_jacobian",
]


def validate_alpha(alpha):
    """Fractional order in (0, 1]; alpha = 1 is the classical boundary case."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha!r}")
    return a


def as_state(x, dim=None):
    """Coerce to a finite 1-D float vector, optionally checking its length."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("state must be a flat vector")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a state of dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("state contains non-finite components")
    return v


def as_states(x, dim=None):
    """One state as from `as_state`, or a (B, n) batch of B >= 1 of them."""
    if np.ndim(x) == 2 and len(x):
        return np.array([as_state(row, dim) for row in np.asarray(x, dtype=float)])
    return as_state(x, dim)


def as_gains(k, dim):
    """Feedback gain vector of length dim; a scalar expands to the full diagonal."""
    arr = np.asarray(k, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.ndim != 1 or arr.size != dim:
        raise ValueError(f"expected {dim} gains, got shape {arr.shape}")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError("feedback gains must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class SystemDef:
    """Named autonomous vector field on R^n with an analytic Jacobian.

    `field` maps a state vector to f(x) and `jacobian` to the n-by-n matrix
    of partials; both also take a (B, n) batch of states (see the module
    docstring). Both are expected to be deterministic and side-effect
    free, which makes instances safe to share across concurrent runs.
    """

    name: str
    dim: int
    field: Callable
    jacobian: Callable

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("system dimension must be at least 1")


def is_equilibrium(sys, x, tol=1e-10):
    """True when the field vanishes at x, max norm within tol."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    v = as_state(x, sys.dim)
    fx = np.asarray(sys.field(v), dtype=float)
    return float(np.max(np.abs(fx))) <= tol


def _rows(value, convert):
    """Apply `convert` to a single value, or to each row of a 2-D batch."""
    if np.ndim(value) == 2:
        return np.array([convert(row) for row in np.asarray(value, dtype=float)])
    return convert(value)


def controlled(sys, k, x_e, equilibrium_tol=1e-8):
    """System with diagonal feedback pinned at an equilibrium of the base.

    The returned field is f(x) - k*(x - x_e) componentwise, the Jacobian is
    J(x) - diag(k), and x_e remains an equilibrium. A point that is not an
    equilibrium of the base system (within equilibrium_tol) is rejected.

    Gains and targets may carry a leading batch axis, shape (B, n): row b
    of a (B, n) state is then fed back with gains k[b] towards x_e[b]. Each
    row is validated on its own, and every target must be an equilibrium.
    """
    gains = _rows(k, lambda row: as_gains(row, sys.dim))
    target = as_states(x_e, sys.dim)
    if gains.ndim == target.ndim == 2 and len(gains) != len(target):
        raise ValueError(
            f"{len(gains)} gain rows do not match {len(target)} target rows"
        )
    for point in np.atleast_2d(target):
        if not is_equilibrium(sys, point, equilibrium_tol):
            raise ValueError(
                f"target point is not an equilibrium of {sys.name} "
                f"(tolerance {equilibrium_tol:g})"
            )
    base_field = sys.field
    base_jacobian = sys.jacobian
    # diag(k), or one diagonal block per row of batched gains
    shift = gains[..., :, None] * np.eye(sys.dim)

    def field(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(base_field(x), dtype=float) - gains * (x - target)

    def jacobian(x):
        return np.asarray(base_jacobian(x), dtype=float) - shift

    return SystemDef(
        name=sys.name + "-controlled", dim=sys.dim, field=field, jacobian=jacobian
    )


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
