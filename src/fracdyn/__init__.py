"""Fractional-order dynamical systems toolkit.

Integrates Caputo fractional initial value problems with the
Adams-Bashforth-Moulton predictor-corrector scheme, classifies equilibrium
stability through the Matignon argument condition and fractional
Routh-Hurwitz tests, and ships the five-dimensional Maxwell-Bloch model,
plain and feedback-controlled, as a built-in system.

Importing the package loads none of its modules: each exported name
imports the module that defines it on first use.
"""

import importlib

# defining module -> the names the package exports from it
_EXPORTS = {
    "expconfig": ("ConfigError", "ExperimentConfig", "load_config", "parse_config",
                  "serialize_config"),
    "numkit": ("DomainError", "eigenvalues", "mittag_leffler", "poly_roots"),
    "solver": ("ConvergenceReport", "NumericalError", "SolverConfig", "Trajectory",
               "convergence_order", "integrate", "integrate_batches"),
    "stability": ("CubicCoeffs", "E1GainReport", "E2GainReport", "EquilibriumReport",
                  "RouthHurwitz", "Verdict", "classify_equilibrium", "cubic_from_gains",
                  "e1_gain_condition", "e2_gain_condition", "matignon_classify",
                  "matignon_margins", "routh_hurwitz_cubic", "stability_alpha_threshold"),
    "systems": ("SystemDef", "as_gains", "as_state", "controlled", "is_equilibrium",
                "validate_alpha"),
}
_MODULES = ("maxbloch", "numkit", "registry")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULES, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
