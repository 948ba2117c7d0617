"""The five-dimensional Maxwell-Bloch model.

State layout: x1, x2 are the electric field components, x3, x4 the
polarization components and x5 the occupation-number difference. The
vector field is

    f(x) = (x3, x4, x1*x5, x2*x5, -(x1*x3 + x2*x4))

which can equivalently be written A*x + x1*(A1*x) + x2*(A2*x) with the
constant matrices below. Its equilibria form exactly two families:
(m, n, 0, 0, 0) with (m, n) != (0, 0), and (0, 0, 0, 0, m). The origin is
the degenerate member of the second family.

The controlled model (`controlled_system`) pairs its numpy field with the
same field on Python floats, with the same bits, for lone runs.
"""

import math
from dataclasses import replace

import numpy as np

from .systems import SystemDef, as_gains, as_state, controlled

__all__ = [
    "SYSTEM_NAME",
    "CONTROLLED_SYSTEM_NAME",
    "A",
    "A1",
    "A2",
    "field",
    "jacobian",
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
    """Componentwise vector field (x3, x4, x1*x5, x2*x5, -(x1*x3 + x2*x4)).

    Takes a state of shape (5,) or a batch of shape (B, 5).
    """
    x1, x2, x3, x4, x5 = np.asarray(x, dtype=float).T
    return np.array([x3, x4, x1 * x5, x2 * x5, -(x1 * x3 + x2 * x4)]).T


def jacobian(x):
    """Analytic Jacobian of the field at one state: (5,) -> (5, 5)."""
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
    if m == 0 and n == 0:
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


def family_of(point):
    """Family membership of a point: ("e1", (m, n)) or ("e2", (m,)).

    Membership is exact, as `e1` and `e2` build the points: zero components
    must be exactly zero. Raises ValueError for points outside both
    families. The origin resolves to the second family.
    """
    p = as_state(point, 5)
    if p[:2].any() and not p[2:].any():
        return "e1", (float(p[0]), float(p[1]))
    if not p[:4].any():
        return "e2", (float(p[4]),)
    raise ValueError("point belongs to neither equilibrium family")


def system():
    """The uncontrolled model as a SystemDef."""
    return SystemDef(name=SYSTEM_NAME, dim=5, field=field, jacobian=jacobian)


def controlled_system(k, x_e):
    """Feedback-controlled model pinned at an equilibrium of either family.

    Gains and targets may carry a leading batch axis, as in
    `systems.controlled`; every target row must belong to a family.

    `systems.controlled` validates the parameters and gives the model its
    numpy `field`. With one gain vector and one target, the model also gets
    a `float_field`, on which `integrate` steps lone runs: the same IEEE
    operations on Python floats in the same order as the numpy field, so
    the two agree bit for bit (a NaN may carry another sign) at about a
    quarter of the cost per call, without numpy's overflow warnings.
    """
    for point in np.atleast_2d(x_e):
        family_of(point)
    sysdef = controlled(system(), k, x_e)  # `controlled` names it CONTROLLED_SYSTEM_NAME
    if np.ndim(k) > 1 or np.ndim(x_e) > 1:
        return sysdef
    k1, k2, k3, k4, k5 = as_gains(k, 5).tolist()
    t1, t2, t3, t4, t5 = as_state(x_e, 5).tolist()

    def float_field(x):
        x1, x2, x3, x4, x5 = x
        return [
            x3 - k1 * (x1 - t1),
            x4 - k2 * (x2 - t2),
            x1 * x5 - k3 * (x3 - t3),
            x2 * x5 - k4 * (x4 - t4),
            -(x1 * x3 + x2 * x4) - k5 * (x5 - t5),
        ]

    return replace(sysdef, float_field=float_field)


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
