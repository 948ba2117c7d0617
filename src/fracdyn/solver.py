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

The memory term makes a single integration sequential. Both history sums
are convolutions of the field values F[j] with fixed lag kernels, and the
full memory is kept: no term is dropped. Each run builds one private
`_Scheme`; its `advance` is the one step kernel of `integrate` and `step`.
The at most 256 most recent field values (the near window) are summed
directly, as one product with both kernels. Every earlier value reaches a
step through far-field sums that are added a block at a time, one FFT
product per completed block, with blocks doubling in length (Hairer,
Lubich & Schlichte 1985; Garrappa 2018 applies this to the same
predictor-corrector pair). A run of N steps therefore costs
O(N log^2 N) work, against O(N^2) for the direct double sum, and about
16*d bytes per step: the far-field sums wait in the not yet computed
parts of the state and field arrays. The FFT products only reorder
floating-point sums; results stay within 1e-12 relative of the direct
sum (at most 1e-15 measured). Field values are cached so the field
itself is evaluated exactly twice per accepted step. Distinct runs share
no state.

A (B, d) x0 is a batch of B runs that share (system, alpha, h, N): the
field takes (B, d) states, each member takes its own near-window product
and far-field rows, so member b is bitwise equal to the lone run from x0[b].
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .systems import SystemDef, as_states, validate_alpha

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

# Guard against accidental memory blowups: a run keeps its states and field
# history, 16*d bytes per step. A 10**6-step run of the 5-D model holds
# 80 MB of them and peaked at 194 MB with the transform temporaries.
MAX_STEPS = 10**6

# Width of the near window and length of the shortest far-field block;
# 128 and 512 measured no faster.
_BLOCK = 256
# Rows of F that one far-field FFT call transforms together, chosen so each
# temporary holds about this many values: short blocks of a (B, d) batch
# go in a few calls, long blocks row by row to bound peak memory.
_FFT_VALUES = 2**13


class NumericalError(RuntimeError):
    """A field evaluation produced NaN or Inf during a run.

    For a batch (a (B, d) x0), `rows` holds the indices of the members whose
    values were non-finite at `step_index`, in increasing order; every other
    member was finite up to and including that check. It is None for a lone
    run.
    """

    def __init__(self, message, step_index, time, rows=None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.rows = rows


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters: order, step size, step count, initial state.

    x0 is one state (d,) or a batch of B states (B, d), kept as tuples.
    """

    alpha: float
    h: float
    n_steps: int
    x0: tuple
    predictor_anchor: str = PREDICTOR_WITH_X0

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        x0 = as_states(self.x0)
        rows = x0.tolist()
        object.__setattr__(self, "x0", tuple(map(tuple, rows) if x0.ndim == 2 else rows))
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

    states[i] has the shape of x0. When requested, predictor_states[i]
    holds the predictor value for step i + 1, i.e. the x_p sequence over
    t_1..t_N.
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
    return _lag_weights(n + 1, alpha)[0][::-1].copy()


def corrector_weights(n, alpha):
    """Vector of a[j, n+1] for j = 0..n."""
    alpha = validate_alpha(alpha)
    if n < 0:
        raise IndexError("n must be non-negative")
    out = np.empty(n + 1)
    out[0] = _first_corrector_weights(n, alpha)
    out[1:] = _lag_weights(n, alpha)[1][::-1]
    return out


def _lag_weights(m, alpha):
    """Predictor and corrector weights by lag k = n - j, for k = 0..m-1.

    b_k = (k + 1)^alpha - k^alpha and ak_k, the second difference of
    d^(alpha+1) at d = k + 1; ak_k is a[j, n+1] for every j >= 1.
    """
    d = np.arange(m + 2, dtype=float)
    q = d ** (alpha + 1.0)
    d **= alpha
    a = q[2:] + q[:-2]
    a -= 2.0 * q[1:-1]
    return np.diff(d[:-1]), a


def _first_corrector_weights(n, alpha):
    """a[0, n+1] for an integer n or an array of them."""
    n = np.asarray(n, dtype=float)
    # np.power, not the float64 scalar `**`, so a scalar n rounds as in an array
    return np.power(n, alpha + 1.0) - (n - alpha) * np.power(n + 1.0, alpha)


def _checked_field(sys, scheme, x, step_index, stage):
    """One field value, checked for its shape as well as for finiteness."""
    out = np.asarray(sys.field(x), dtype=float)
    if out.shape != x.shape:
        raise ValueError(
            f"field of {sys.name} returned shape {out.shape}, expected {x.shape}"
        )
    return scheme.check(out, f"{stage} field value", step_index)


class _Scheme:
    """Weights, constants, states and field history of one run of N = n_steps steps.

    Step n sums the field values F[j], j = 0..n, with the lag weights b_k
    and ak_k of `_lag_weights`, k = n - j, scaled by cp and cc. Steps come
    in blocks of r = _BLOCK:

    - the near window, the values of step n's own block up to n, is one
      product per batch member with `near`, both scaled kernels reversed;
    - every earlier value reaches step n through far-field sums. When
      `push` completes F block [s*r, q*r), with L the lowest set bit of q
      and s = q - L, it adds that block's sums to steps [q*r, (q + L)*r)
      by one FFT product. These tiles cover every pair of blocks j < n
      exactly once (Hairer, Lubich & Schlichte 1985).

    F is a (..., N + 1, d) view of `rows`, one row of history per state
    component, which the far field transforms. The far-field sums of step
    n wait in the slots that step n fills: F[..., n + 1, :] holds the
    predictor's and states[n + 1] the corrector's, so they take no memory
    of their own. `push(0)` starts them at the anchor and at
    x0 + cc * c0[n] * F[0]: the kernels give F[0] the weight ak_n, and
    c0[n] = a0[n] - ak_n makes it a0[n].
    """

    def __init__(self, cfg, dim, n_steps):
        self.h = cfg.h
        self.alpha = cfg.alpha
        self.n_steps = n_steps
        self.cp = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 1.0)
        self.cc = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 2.0)
        b, a = _lag_weights(_BLOCK, cfg.alpha)
        self.near = np.stack([self.cp * b, self.cc * a])[:, ::-1].copy()
        self.x0 = as_states(cfg.x0, dim)
        self.anchor = (self.x0 if cfg.predictor_anchor == PREDICTOR_WITH_X0
                       else np.zeros_like(self.x0))
        self.zeros = np.zeros(self.x0.size)
        self.rows = np.empty((self.x0.size, n_steps + 1))
        self.F = np.swapaxes(self.rows.reshape(self.x0.shape + (n_steps + 1,)), -1, -2)
        self.states = np.empty((n_steps + 1,) + self.x0.shape)
        self.states[0] = self.x0

    def check(self, value, what, step_index):
        """`value`, or NumericalError at `step_index` if it holds NaN or Inf."""
        # inf * 0 and nan * 0 are nan, so one dot product tests every entry
        if not math.isfinite(self.zeros.dot(value.ravel())):
            t = step_index * self.h
            rows = None
            if value.ndim == 2:
                rows = tuple(np.flatnonzero(~np.isfinite(value).all(axis=1)).tolist())
            raise NumericalError(
                f"non-finite {what} at step {step_index} (t = {t:.10g})", step_index, t, rows
            )
        return value

    def push(self, j):
        """Take in field value j; a value that completes a block adds its far field."""
        rows, N = self.rows, self.n_steps
        if j == 0:
            c0 = _first_corrector_weights(np.arange(N), self.alpha)
            c0 -= _lag_weights(N, self.alpha)[1]
            self.F[..., 1:, :] = self.anchor[..., None, :]
            np.outer(self.cc * c0, rows[:, 0], out=self.states[1:].reshape(N, -1))
            self.states[1:] += self.x0
        q, rest = divmod(j + 1, _BLOCK)
        o0 = q * _BLOCK
        if rest or o0 >= N:
            return
        from numpy.fft import irfft, rfft  # only runs longer than one block need it

        states = self.states.reshape(N + 1, -1)
        size = q & -q
        j0, o1 = o0 - size * _BLOCK, min(o0 + size * _BLOCK, N)
        nfft = o1 - j0  # outputs see lags 1..nfft-1 only, so nothing wraps
        kernels = [rfft(c * weights)
                   for c, weights in zip((self.cp, self.cc), _lag_weights(nfft, self.alpha))]
        chunk = max(1, _FFT_VALUES // nfft)
        for i in range(0, len(rows), chunk):
            spectra = rfft(rows[i : i + chunk, j0:o0], nfft)
            slots = (rows[i : i + chunk, o0 + 1 : o1 + 1],
                     states[o0 + 1 : o1 + 1, i : i + chunk].T)
            for kernel, out in zip(kernels, slots):
                out += irfft(spectra * kernel, nfft)[:, o0 - j0 :]

    def advance(self, field, n):
        """Predictor and corrector for step n + 1 from field values F[..., 0..n, :]."""
        k = n % _BLOCK
        near = self.near[:, _BLOCK - 1 - k :] @ self.F[..., n - k : n + 1, :]
        xp = near[..., 0, :] + self.F[..., n + 1, :]
        fp = self.check(field(xp), "predictor field value", n + 1)
        xc = near[..., 1, :] + self.states[n + 1] + self.cc * fp
        return xp, self.check(xc, "corrected state", n + 1)


def step(sys, cfg, history, n):
    """Predictor and corrector values carrying the history to step n + 1.

    `history` must hold accepted states 0..n, each shaped like x0; field
    values are recomputed from it and taken in by the same far-field pushes
    as in `integrate` over cfg.n_steps steps, so the result equals what
    `integrate` produces at the same index bit for bit.
    """
    states = np.asarray(history.states, dtype=float)
    if states.shape[1:] != np.shape(cfg.x0):
        raise ValueError("history states must be an (m, *x0.shape) array")
    if not 0 <= n < states.shape[0]:
        raise ValueError(f"history holds {states.shape[0]} states, step n={n} needs 0..n")
    scheme = _Scheme(cfg, sys.dim, max(cfg.n_steps, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n + 1):
            scheme.F[..., j, :] = _checked_field(sys, scheme, states[j], j, "history")
            scheme.push(j)
        return scheme.advance(sys.field, n)


def integrate(sys, cfg, keep_predictor=False):
    """Integrate the system over the whole horizon and return the trajectory.

    Deterministic: identical inputs give identical output arrays, and a
    batch member's equal its lone run's. Numerical failures (NaN/Inf from
    the field) raise NumericalError carrying the failing step index and time.
    """
    n_steps = cfg.n_steps
    field = sys.field
    scheme = _Scheme(cfg, sys.dim, n_steps)
    F, states = scheme.F, scheme.states
    preds = np.empty((n_steps,) + scheme.x0.shape) if keep_predictor else None

    # overflow in the field is caught by the finiteness checks, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        F[..., 0, :] = _checked_field(sys, scheme, scheme.x0, 0, "initial")
        scheme.push(0)
        for n in range(n_steps):
            xp, xc = scheme.advance(field, n)
            if preds is not None:
                preds[n] = xp
            states[n + 1] = xc
            F[..., n + 1, :] = scheme.check(field(xc), "corrector field value", n + 1)
            scheme.push(n + 1)

    times = np.arange(n_steps + 1, dtype=float) * cfg.h
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
    if t_min > tau:
        raise ValueError(f"no grid point lies in t >= t_min = {t_min} up to the horizon {tau}")
    errors = []
    for h in h_list:
        if not 0.0 < h < math.inf:
            raise ValueError("step sizes must be positive and finite")
        if tau / h > MAX_STEPS + 0.5:  # also when tau / h overflows
            raise ValueError(f"step size {h} needs over {MAX_STEPS} steps to reach {tau}")
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
