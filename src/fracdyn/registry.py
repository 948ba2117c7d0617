"""Named system registry for the command line front end."""

import numpy as np

from . import maxbloch
from .numkit import as_floats, mittag_leffler
from .systems import SystemDef, validate_alpha

__all__ = ["SYSTEMS", "build_system", "oracle_for"]

ZERO_FIELD = "zero-field-5d"
LINEAR_DECAY = "linear-decay"

SYSTEMS = (
    maxbloch.SYSTEM_NAME,
    maxbloch.CONTROLLED_SYSTEM_NAME,
    ZERO_FIELD,
    LINEAR_DECAY,
)


def build_system(name, gains=None, target=None):
    """Instantiate a registered system by name.

    The controlled model needs both gains and a target equilibrium point,
    each optionally with a leading batch axis; the other entries take no
    parameters, and gains given to one of them raise ValueError rather than
    being ignored. Every field accepts a (d,) state or a (B, d) batch, and
    every Jacobian one (d,) state.
    """
    if gains is not None and name != maxbloch.CONTROLLED_SYSTEM_NAME and name in SYSTEMS:
        raise ValueError(f"{name} takes no gains; feedback gains need "
                         f"{maxbloch.CONTROLLED_SYSTEM_NAME}")
    if name == maxbloch.SYSTEM_NAME:
        return maxbloch.system()
    if name == maxbloch.CONTROLLED_SYSTEM_NAME:
        if gains is None or target is None:
            raise ValueError(f"{name} needs gains and a target equilibrium")
        return maxbloch.controlled_system(gains, target)
    if name == ZERO_FIELD:
        return SystemDef(name=ZERO_FIELD, dim=5, field=lambda x: np.zeros_like(x, dtype=float),
                         jacobian=lambda x: np.zeros((5, 5)))
    if name == LINEAR_DECAY:
        return SystemDef(name=LINEAR_DECAY, dim=1, field=lambda x: -np.asarray(x, dtype=float),
                         jacobian=lambda x: np.full((1, 1), -1.0))
    raise ValueError(f"unknown system {name!r}; available: {', '.join(SYSTEMS)}")


def oracle_for(name, alpha, x0):
    """Analytic solution t -> x(t) for systems that have one, else None.

    The linear decay problem D^alpha x = -x has the closed form
    x(t) = x0 * E_alpha(-t^alpha).
    """
    if name != LINEAR_DECAY:
        return None
    alpha = validate_alpha(alpha)
    x0 = as_floats(x0, "state contains non-finite components", finite=True)
    start = float(np.atleast_1d(x0)[0])

    def oracle(t):
        return start * mittag_leffler(alpha, -(float(t) ** alpha))

    return oracle
