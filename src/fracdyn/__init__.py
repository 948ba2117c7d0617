"""Fractional-order dynamical systems toolkit.

Integrates Caputo fractional initial value problems with the
Adams-Bashforth-Moulton predictor-corrector scheme, classifies equilibrium
stability through the Matignon argument condition and fractional
Routh-Hurwitz tests, and ships the five-dimensional Maxwell-Bloch model,
plain and feedback-controlled, as a built-in system.
"""

from . import maxbloch, numkit, registry
from .expconfig import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .numkit import (
    ConvergenceError,
    DomainError,
    eigenvalues,
    mittag_leffler,
    poly_roots,
)
from .solver import (
    ConvergenceReport,
    NumericalError,
    SolverConfig,
    Trajectory,
    convergence_order,
    integrate,
    integrate_batches,
)
from .stability import (
    CubicCoeffs,
    E1GainReport,
    E2GainReport,
    EquilibriumReport,
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
from .systems import (
    SystemDef,
    as_gains,
    as_state,
    controlled,
    is_equilibrium,
    validate_alpha,
)

__version__ = "0.1.0"
