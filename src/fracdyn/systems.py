"""System definitions for autonomous dynamics under a Caputo derivative.

A SystemDef packages a named vector field f on R^n together with its
Jacobian; the integrator, the stability classifiers and the command line
front end all consume this one abstraction. The `controlled` wrapper adds
the diagonal linear feedback -k*(x - x_e) used to stabilize an otherwise
unstable equilibrium.

Shape contract: a field takes one state of shape (n,) or a batch of B
states of shape (B, n) and returns an array of the same shape, row b
being f(x[b]); a Jacobian takes one state (n,) and returns (n, n), so a
system whose gains carry a batch axis refuses to give one. Both take
float states: as the integrator's per-step callbacks they pass no gate,
so `maxbloch.field([10**400, 0, 0, 0, 0])` raises OverflowError.
Fields are evaluated row by row with elementwise operations, so a row of
a batch is bitwise equal to the single evaluation. The numpy field of
`controlled` serves both shapes; `fracdyn.maxbloch.controlled_system`
keeps it as its field and test oracle and adds a `float_field` with the
same bits, on which the integrator steps lone runs. The integrator builds
on this: a (B, n) initial state advances B runs of one system at once
(see `fracdyn.solver`), and a system whose parameters carry a batch axis
(see `controlled`) gives each run its own parameters. States, orders and
gains become floats through `fracdyn.numkit.as_floats`, the one gate.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numkit import as_floats

__all__ = [
    "EQUILIBRIUM_TOL",
    "SystemDef",
    "validate_alpha",
    "as_state",
    "as_states",
    "as_gains",
    "is_equilibrium",
    "controlled",
]

# A point whose field is within EQUILIBRIUM_TOL of zero (max norm) counts
# as an equilibrium, as a feedback target and as a point to classify.
EQUILIBRIUM_TOL = 1e-10


def validate_alpha(alpha):
    """Fractional order in (0, 1]; alpha = 1 is the classical boundary case."""
    a = float(as_floats(alpha, "fractional order must lie in (0, 1]"))
    if not 0.0 < a <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha!r}")
    return a


def as_state(x, dim=None):
    """Coerce to a finite 1-D float vector, optionally checking its length."""
    v = np.atleast_1d(as_floats(x, "state contains non-finite components", finite=True))
    if v.ndim != 1:
        raise ValueError("state must be a flat vector")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a state of dimension {dim}, got {v.size}")
    return v


def as_states(x, dim=None):
    """One state as from `as_state`, or a (B, n) batch of B >= 1 of them."""
    if np.ndim(x) == 2 and len(x):
        return np.array([as_state(row, dim) for row in x])
    return as_state(x, dim)


def as_gains(k, dim):
    """Feedback gain vector of length dim; a scalar expands to the full diagonal."""
    arr = as_floats(k, "feedback gains must be finite and non-negative", finite=True)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.ndim != 1 or arr.size != dim:
        raise ValueError(f"expected {dim} gains, got shape {arr.shape}")
    if (arr < 0.0).any():
        raise ValueError("feedback gains must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class SystemDef:
    """Named autonomous vector field on R^n with an analytic Jacobian.

    `field` maps a state vector, or a (B, n) batch of them (see the module
    docstring), to f(x), and `jacobian` maps one state to the n-by-n matrix
    of partials. Both are expected to be deterministic and side-effect
    free, which makes instances safe to share across concurrent runs.

    `float_field`, when given, is the same field on Python floats: it maps
    a list of n floats to a list of n floats, bitwise equal to `field` on
    the float64 array of those values (a NaN may carry another sign). It
    may raise where `field` would return a non-finite value. The
    integrator steps a lone run on it (see `fracdyn.solver`); batches and
    other callers use `field`.
    """

    name: str
    dim: int
    field: Callable
    jacobian: Callable
    float_field: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("system dimension must be at least 1")


def is_equilibrium(sys, x):
    """True when the field at x is within EQUILIBRIUM_TOL of zero (max norm)."""
    v = as_state(x, sys.dim)
    fx = np.asarray(sys.field(v), dtype=float)
    return float(np.max(np.abs(fx))) <= EQUILIBRIUM_TOL


def controlled(sys, k, x_e):
    """System with diagonal feedback pinned at an equilibrium of the base.

    The returned field is f(x) - k*(x - x_e) componentwise, the Jacobian is
    J(x) - diag(k), and x_e remains an equilibrium. A point that is not an
    equilibrium of the base system (within EQUILIBRIUM_TOL) is rejected.

    Gains and targets may carry a leading batch axis, shape (B, n): row b
    of a (B, n) state is then fed back with gains k[b] towards x_e[b]. Each
    row is validated on its own, and every target must be an equilibrium.
    The Jacobian keeps the one-state contract, so batched gains leave the
    system without one: calling it raises ValueError.
    """
    if np.ndim(k) == 2:
        gains = np.array([as_gains(row, sys.dim) for row in k])
    else:
        gains = as_gains(k, sys.dim)
    target = as_states(x_e, sys.dim)
    if gains.ndim == target.ndim == 2 and len(gains) != len(target):
        raise ValueError(
            f"{len(gains)} gain rows do not match {len(target)} target rows"
        )
    for point in np.atleast_2d(target):
        if not is_equilibrium(sys, point):
            raise ValueError(
                f"target point is not an equilibrium of {sys.name} "
                f"(tolerance {EQUILIBRIUM_TOL:g})"
            )
    base_field = sys.field
    base_jacobian = sys.jacobian
    shift = np.diag(gains) if gains.ndim == 1 else None

    def field(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(base_field(x), dtype=float) - gains * (x - target)

    def jacobian(x):
        if shift is None:
            raise ValueError("a Jacobian maps one state to one (n, n) matrix; "
                             "a system with batched gains has none")
        return np.asarray(base_jacobian(x), dtype=float) - shift

    return SystemDef(
        name=sys.name + "-controlled", dim=sys.dim, field=field, jacobian=jacobian
    )
