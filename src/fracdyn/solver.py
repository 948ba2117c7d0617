"""Adams-Bashforth-Moulton predictor-corrector for Caputo fractional IVPs.

The scheme discretizes the Volterra integral form of D^alpha x = f(x),
x(0) = x0 on a uniform grid t_n = n*h. Each step combines a fractional
Adams-Bashforth predictor

    x_p[n+1] = x0 + h^alpha / gamma(alpha + 1) * sum_j b[j, n+1] * F[j]

with an Adams-Moulton corrector

    x[n+1] = x0 + h^alpha / gamma(alpha + 2)
                * (sum_j a[j, n+1] * F[j] + F(x_p[n+1]))

where F[j] = f(x[j]) and the quadrature weights are

    b[j, n+1] = (n + 1 - j)^alpha - (n - j)^alpha
    a[0, n+1] = n^(alpha+1) - (n - alpha) * (n + 1)^alpha
    a[j, n+1] = (n - j + 2)^(alpha+1) + (n - j)^(alpha+1)
                - 2 * (n - j + 1)^(alpha+1)              for 1 <= j <= n.

At alpha = 1 all b weights equal 1 and the corrector collapses to the
composite trapezoidal rule, so the corrected trajectory of a linear system
coincides with a classical explicit-Euler/trapezoidal PECE method.

Some sources print the predictor line without the x0 anchor. Without it
the alpha = 1 reduction is wrong and controlled runs do not converge, so
the anchored form is the default; `predictor_anchor="as_printed"` selects
the unanchored variant for comparison.

The memory term makes a single integration sequential and O(N^2) overall;
field values are cached so the field itself is evaluated exactly twice per
accepted step. Distinct runs share no state.

Each run builds one private `_Scheme` from `predictor_weights` and
`corrector_weights`; its `advance` is the one step kernel of `integrate`
and `step`. Field values are kept as a d x (N + 1) array, so both history
sums are products of contiguous rows with contiguous weight tails.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import SystemDef, as_state, validate_alpha

__all__ = [
    "PREDICTOR_WITH_X0",
    "PREDICTOR_AS_PRINTED",
    "MAX_STEPS",
    "NumericalError",
    "SolverConfig",
    "Trajectory",
    "predictor_weight",
    "corrector_weight",
    "predictor_weights",
    "corrector_weights",
    "step",
    "integrate",
    "ConvergenceReport",
    "convergence_order",
]

PREDICTOR_WITH_X0 = "with_x0"
PREDICTOR_AS_PRINTED = "as_printed"

# Guard against accidental memory blowups; the dense history is O(N).
MAX_STEPS = 10**6


class NumericalError(RuntimeError):
    """A field evaluation produced NaN or Inf during a run."""

    def __init__(self, message, step_index, time):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters: order, step size, step count, initial state."""

    alpha: float
    h: float
    n_steps: int
    x0: tuple
    predictor_anchor: str = PREDICTOR_WITH_X0

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "x0", tuple(float(v) for v in as_state(self.x0)))
        if not 0.0 < self.h < math.inf:
            raise ValueError("step size must be positive and finite")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"step count must lie in 1..{MAX_STEPS}")
        if self.predictor_anchor not in (PREDICTOR_WITH_X0, PREDICTOR_AS_PRINTED):
            raise ValueError(f"unknown predictor anchor {self.predictor_anchor!r}")

    @property
    def horizon(self):
        return self.h * self.n_steps


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid solution: times t_0..t_N and states x[0..N].

    When requested, predictor_states[i] holds the predictor value for step
    i + 1, i.e. the x_p sequence over t_1..t_N.
    """

    times: np.ndarray
    states: np.ndarray
    predictor_states: Optional[np.ndarray] = None


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


def predictor_weights(n, alpha):
    """Vector of b[j, n+1] for j = 0..n.

    The sum telescopes to (n + 1)^alpha, which the tests use as an exact
    consistency check.
    """
    alpha = validate_alpha(alpha)
    if n < 0:
        raise IndexError("n must be non-negative")
    p = np.arange(n + 2, dtype=float) ** alpha
    return np.diff(p)[::-1].copy()


def corrector_weights(n, alpha):
    """Vector of a[j, n+1] for j = 0..n."""
    alpha = validate_alpha(alpha)
    if n < 0:
        raise IndexError("n must be non-negative")
    q = np.arange(n + 2, dtype=float) ** (alpha + 1.0)
    out = np.empty(n + 1)
    out[0] = _first_corrector_weights(n, alpha)
    # second difference of d^(alpha+1); index j maps to d = n - j
    out[1:] = (q[2:] + q[:-2] - 2.0 * q[1:-1])[::-1]
    return out


def _first_corrector_weights(n, alpha):
    """a[0, n+1] for an integer n or an array of them."""
    n = np.asarray(n, dtype=float)
    return n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha


def _eval_field(sys, x, step_index, t, stage):
    # overflow here is handled by the finiteness check, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(sys.field(np.asarray(x, dtype=float)), dtype=float)
    if out.shape != (sys.dim,):
        raise ValueError(
            f"field of {sys.name} returned shape {out.shape}, expected ({sys.dim},)"
        )
    if not np.isfinite(out).all():
        raise NumericalError(
            f"non-finite {stage} field value at step {step_index} (t = {t:.10g})",
            step_index,
            t,
        )
    return out


class _Scheme:
    """Weights and constants of one run of up to N = n_steps steps.

    `b` and `a` are predictor_weights(N, alpha) and corrector_weights(N, alpha),
    so step n reads the contiguous tails b[N-n:] (j = 0..n) and a[N-n+1:]
    (j = 1..n); a0[n] is its j = 0 corrector weight.
    """

    def __init__(self, cfg, dim, n_steps):
        self.h = cfg.h
        self.n_steps = n_steps
        self.b = predictor_weights(n_steps, cfg.alpha)
        self.a = corrector_weights(n_steps, cfg.alpha)
        self.a0 = _first_corrector_weights(np.arange(n_steps), cfg.alpha)
        self.cp = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 1.0)
        self.cc = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 2.0)
        self.x0 = as_state(cfg.x0, dim)
        self.anchor = self.x0 if cfg.predictor_anchor == PREDICTOR_WITH_X0 else np.zeros(dim)

    def advance(self, sys, FT, n):
        """Predictor and corrector for step n + 1 from field values FT[:, 0..n]."""
        tail = self.n_steps - n
        t_next = (n + 1) * self.h
        xp = self.anchor + self.cp * (FT[:, : n + 1] @ self.b[tail:])
        fp = _eval_field(sys, xp, n + 1, t_next, "predictor")
        acc = self.a0[n] * FT[:, 0] + FT[:, 1 : n + 1] @ self.a[tail + 1 :] + fp
        xc = self.x0 + self.cc * acc
        if not np.isfinite(xc).all():
            raise NumericalError(
                f"non-finite corrected state at step {n + 1} (t = {t_next:.10g})",
                n + 1,
                t_next,
            )
        return xp, xc


def step(sys, cfg, history, n):
    """Predictor and corrector values carrying the history to step n + 1.

    `history` must hold accepted states 0..n; field values are recomputed
    from it. The result matches what `integrate` produces at the same
    index, including the evaluation order.
    """
    states = np.asarray(history.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != sys.dim:
        raise ValueError("history states must be an (m, dim) array")
    if not 0 <= n < states.shape[0]:
        raise ValueError(f"history holds {states.shape[0]} states, step n={n} needs 0..n")
    scheme = _Scheme(cfg, sys.dim, n + 1)
    FT = np.empty((sys.dim, n + 1))
    for j in range(n + 1):
        FT[:, j] = _eval_field(sys, states[j], j, j * cfg.h, "history")
    return scheme.advance(sys, FT, n)


def integrate(sys, cfg, keep_predictor=False):
    """Integrate the system over the whole horizon and return the trajectory.

    Deterministic: identical inputs give identical output arrays. Numerical
    failures (NaN/Inf from the field) raise NumericalError carrying the
    failing step index and time.
    """
    n_steps = cfg.n_steps
    h = cfg.h
    scheme = _Scheme(cfg, sys.dim, n_steps)

    states = np.empty((n_steps + 1, sys.dim))
    states[0] = scheme.x0
    FT = np.empty((sys.dim, n_steps + 1))
    FT[:, 0] = _eval_field(sys, scheme.x0, 0, 0.0, "initial")
    preds = np.empty((n_steps, sys.dim)) if keep_predictor else None

    for n in range(n_steps):
        xp, xc = scheme.advance(sys, FT, n)
        if preds is not None:
            preds[n] = xp
        states[n + 1] = xc
        FT[:, n + 1] = _eval_field(sys, xc, n + 1, (n + 1) * h, "corrector")

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states, predictor_states=preds)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outcome of an empirical order study.

    `slope` is the least-squares slope of log(error) against log(h) and
    `residual` the RMS deviation of the fit; both are None for a
    degenerate study (errors at solver precision, no order to fit).
    """

    h_values: tuple
    max_errors: tuple
    slope: Optional[float]
    residual: Optional[float]
    degenerate: bool


def _max_errors(sys, alpha, oracle, h_list, tau, x0, t_min=0.0,
                predictor_anchor=PREDICTOR_WITH_X0):
    """Max-norm error against `oracle` on grid points t >= t_min, per step size."""
    if not (0.0 < tau < math.inf and 0.0 <= t_min < math.inf):
        raise ValueError("tau must be positive and t_min non-negative, both finite")
    errors = []
    for h in h_list:
        if not 0.0 < h < math.inf:
            raise ValueError("step sizes must be positive and finite")
        n_steps = round(tau / h)
        if abs(n_steps * h - tau) > 1e-9 * tau:
            raise ValueError(f"step size {h} does not divide the horizon {tau}")
        cfg = SolverConfig(alpha=alpha, h=h, n_steps=n_steps, x0=x0,
                           predictor_anchor=predictor_anchor)
        traj = integrate(sys, cfg)
        worst = 0.0
        for t, state in zip(traj.times, traj.states):
            if t < t_min - 1e-12:
                continue
            exact = np.atleast_1d(np.asarray(oracle(t), dtype=float))
            worst = max(worst, float(np.max(np.abs(state - exact))))
        errors.append(worst)
    return errors


def convergence_order(sys, alpha, oracle, h_list, tau, x0, t_min=0.0,
                      predictor_anchor=PREDICTOR_WITH_X0):
    """Fit the empirical convergence order against an analytic solution.

    Requires at least three step sizes, each half the previous, all
    dividing the horizon tau. `oracle(t)` must return the exact solution
    to 1e-10 or better. Errors are the max norm over grid points with
    t >= t_min.

    For alpha < 1 the exact solution generally has unbounded derivatives at
    t = 0; the first-step error then decays like h^(2*alpha) while interior
    errors decay like h^(1+alpha), so a full-grid fit understates the
    interior order. Pass t_min > 0 to fit on a fixed window clear of the
    origin.
    """
    alpha = validate_alpha(alpha)
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least three step sizes")
    for a, b in zip(hs, hs[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-6):
            raise ValueError("step sizes must halve from one run to the next")
    errors = _max_errors(sys, alpha, oracle, hs, tau, x0, t_min, predictor_anchor)

    if max(errors) <= 1e-14:
        return ConvergenceReport(tuple(hs), tuple(errors), None, None, True)
    log_h = np.log(hs)
    log_e = np.log(np.maximum(errors, 1e-300))
    coeffs = np.polyfit(log_h, log_e, 1)
    fit = np.polyval(coeffs, log_h)
    residual = float(np.sqrt(np.mean((log_e - fit) ** 2)))
    return ConvergenceReport(tuple(hs), tuple(errors), float(coeffs[0]), residual, False)
