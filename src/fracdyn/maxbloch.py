"""The five-dimensional Maxwell-Bloch model.

State layout: x1, x2 are the electric field components, x3, x4 the
polarization components and x5 the occupation-number difference. The
vector field is

    f(x) = (x3, x4, x1*x5, x2*x5, -(x1*x3 + x2*x4))

which can equivalently be written A*x + x1*(A1*x) + x2*(A2*x) with the
constant matrices below. Its equilibria form exactly two families:
(m, n, 0, 0, 0) with m^2 + n^2 != 0, and (0, 0, 0, 0, m). The origin is
the degenerate member of the second family.
"""

import dataclasses
import math

import numpy as np

from .systems import SystemDef, as_gains, as_state, controlled

__all__ = [
    "SYSTEM_NAME",
    "CONTROLLED_SYSTEM_NAME",
    "A",
    "A1",
    "A2",
    "field",
    "field_matrix_form",
    "jacobian",
    "controlled_field",
    "controlled_jacobian",
    "e1",
    "e2",
    "equilibrium_point",
    "family_of",
    "lipschitz_bound",
    "system",
    "controlled_system",
]

SYSTEM_NAME = "maxwell-bloch-5d"
CONTROLLED_SYSTEM_NAME = "maxwell-bloch-5d-controlled"


def _constant(entries):
    m = np.zeros((5, 5))
    for (row, col), value in entries.items():
        m[row, col] = value
    m.flags.writeable = False
    return m


# Exact integer constants of the bilinear form of the field.
A = _constant({(0, 2): 1.0, (1, 3): 1.0})
A1 = _constant({(2, 4): 1.0, (4, 2): -1.0})
A2 = _constant({(3, 4): 1.0, (4, 3): -1.0})


def field(x):
    """Componentwise vector field (x3, x4, x1*x5, x2*x5, -(x1*x3 + x2*x4))."""
    x1, x2, x3, x4, x5 = np.asarray(x, dtype=float)
    return np.array([x3, x4, x1 * x5, x2 * x5, -(x1 * x3 + x2 * x4)])


def field_matrix_form(x):
    """Same field evaluated as A*x + x1*(A1*x) + x2*(A2*x).

    Agrees with `field` to rounding; the toolkit runs on the componentwise
    form and keeps this one as an equivalence oracle.
    """
    v = np.asarray(x, dtype=float)
    return A @ v + v[0] * (A1 @ v) + v[1] * (A2 @ v)


def jacobian(x):
    """Analytic Jacobian of the field."""
    x1, x2, x3, x4, x5 = np.asarray(x, dtype=float)
    return np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [x5, 0.0, 0.0, 0.0, x1],
        [0.0, x5, 0.0, 0.0, x2],
        [-x3, -x4, -x1, -x2, 0.0],
    ])


def e1(m, n):
    """Equilibrium (m, n, 0, 0, 0); m and n must not both vanish."""
    if m * m + n * n == 0:
        raise ValueError("the (m, n, 0, 0, 0) family requires m^2 + n^2 != 0")
    return np.array([float(m), float(n), 0.0, 0.0, 0.0])


def e2(m):
    """Equilibrium (0, 0, 0, 0, m); m = 0 gives the origin."""
    return np.array([0.0, 0.0, 0.0, 0.0, float(m)])


def equilibrium_point(tag, params):
    """Equilibrium from a family tag: ("e1", (m, n)) or ("e2", (m,))."""
    tag = str(tag).lower()
    if tag == "e1":
        m, n = params
        return e1(m, n)
    if tag == "e2":
        (m,) = params
        return e2(m)
    raise ValueError(f"unknown equilibrium family {tag!r}")


def family_of(point, tol=1e-12):
    """Family membership of a point: ("e1", (m, n)) or ("e2", (m,)).

    Raises ValueError for points outside both families. The origin resolves
    to the second family.
    """
    p = as_state(point, 5)
    if np.max(np.abs(p[2:])) <= tol and p[0] ** 2 + p[1] ** 2 > tol:
        return "e1", (float(p[0]), float(p[1]))
    if np.max(np.abs(p[:4])) <= tol:
        return "e2", (float(p[4]),)
    raise ValueError("point belongs to neither equilibrium family")


def system():
    """The uncontrolled model as a SystemDef."""
    return SystemDef(name=SYSTEM_NAME, dim=5, field=field, jacobian=jacobian)


def controlled_system(k, x_e):
    """Feedback-controlled model pinned at an equilibrium of either family."""
    target = as_state(x_e, 5)
    family_of(target)
    return dataclasses.replace(controlled(system(), k, target), name=CONTROLLED_SYSTEM_NAME)


def controlled_field(x, k, x_e):
    """Field of the controlled model, f(x) - k*(x - x_e).

    Named convenience over the generic feedback wrapper; x_e must belong to
    one of the two equilibrium families.
    """
    return controlled_system(k, x_e).field(np.asarray(x, dtype=float))


def controlled_jacobian(x, k):
    """Jacobian of the controlled model, J(x) - diag(k) (independent of x_e)."""
    return jacobian(x) - np.diag(as_gains(k, 5))


def lipschitz_bound(x0, delta):
    """Lipschitz constant sqrt(2) * (1 + 4*|x0| + 2*delta) of the field.

    Valid on the box of half-width delta around x0 (Euclidean norm for
    |x0|). The sqrt(2) is the Frobenius norm shared by A, A1 and A2, which
    is compatible with the Euclidean vector norm; the constant is
    conservative.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    norm = float(np.linalg.norm(as_state(x0, 5)))
    return math.sqrt(2.0) * (1.0 + 4.0 * norm + 2.0 * float(delta))
