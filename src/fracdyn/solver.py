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
the predictor is always anchored at x0.

The memory term makes a single integration sequential. Both history sums
are convolutions of the field values F[j] with fixed lag kernels, and the
full memory is kept: no term is dropped. Each run builds one private
`_Scheme`; its `steps` is the step kernel of `integrate`, and
`float_steps` its bitwise-equal form on Python floats for a lone run.
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
itself is evaluated exactly twice per step of a clean run. Distinct runs
share no state.

A (B, d) x0 is a batch of B runs that share (system, alpha, h, N): the
field takes (B, d) states, each member takes its own near-window product
and far-field rows, so member b is bitwise equal to the lone run from x0[b].
`integrate_batches` caps such batches in memory and isolates failing runs.
"""

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .numkit import as_floats
from .systems import as_states, validate_alpha

__all__ = [
    "MAX_STEPS",
    "NumericalError",
    "SolverConfig",
    "Trajectory",
    "integrate",
    "BATCH_BYTES",
    "integrate_batches",
    "ConvergenceReport",
    "convergence_order",
]

# Guard against accidental memory blowups: a run keeps its states and field
# history, 16*d bytes per step. A 10**6-step run of the 5-D model holds
# 80 MB of them and peaked at 194 MB with the transform temporaries.
MAX_STEPS = 10**6

# Largest field history, B*d*(N + 1) float64 values, of one batch of
# `integrate_batches`: 16 runs of the 5-D model at N=2000. It also bounds the
# far-field sums, which wait in its unfilled part; only one block's transform
# temporaries come on top. A 64-config sweep at N=2000 peaks at 34.8 MB with
# this cap; half of it (32.9 MB) was slower and twice it (38.3 MB) no faster.
BATCH_BYTES = 5 * 2**18

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

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        h = float(as_floats(self.h, "step size must be positive and finite"))
        object.__setattr__(self, "h", h)
        try:
            object.__setattr__(self, "n_steps", operator.index(self.n_steps))
        except TypeError:
            raise ValueError(f"step count must be an integer, got {self.n_steps!r}") from None
        x0 = as_states(self.x0)
        rows = x0.tolist()
        object.__setattr__(self, "x0", tuple(map(tuple, rows) if x0.ndim == 2 else rows))
        if not 0.0 < self.h < math.inf:
            raise ValueError("step size must be positive and finite")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"step count must lie in 1..{MAX_STEPS}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon h * steps = {self.horizon} is not finite")

    @property
    def horizon(self):
        return self.h * self.n_steps

    def times(self):
        """A new array of the grid t_0..t_N, t_n = n * h."""
        return np.arange(self.n_steps + 1, dtype=float) * self.h


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


def _fast_length(n):
    """The smallest 2^a * 3^b * 5^c >= n: numpy's FFT is slow at lengths
    with a large prime factor (at N=10^6, a far-field tile of 2^6 * 7433
    took over ten times as long as one of 2^19)."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _first_corrector_weights(n, alpha):
    """a[0, n+1] for an integer n or an array of them."""
    n = np.asarray(n, dtype=float)
    # np.power, not the float64 scalar `**`, so a scalar n rounds as in an array
    return np.power(n, alpha + 1.0) - (n - alpha) * np.power(n + 1.0, alpha)


def _unchecked(value, what, step_index):
    """The stage check of a segment's first run: segments are checked whole."""
    return value


class _Scheme:
    """Weights, constants, states and field history of one run of N = n_steps steps.

    Step n sums the field values F[j], j = 0..n, with the lag weights b_k
    and ak_k of `_lag_weights`, k = n - j, scaled by cp and cc. Steps come
    in blocks of r = _BLOCK:

    - the near window, the values of step n's own block up to n, is one
      product per batch member with `windows[n % r]`, the tail of both
      scaled kernels reversed;
    - every earlier value reaches step n through far-field sums. When
      `push` completes F block [s*r, q*r), with L the lowest set bit of q
      and s = q - L, it adds that block's sums to steps [q*r, (q + L)*r)
      by one FFT product. These tiles cover every pair of blocks j < n
      exactly once (Hairer, Lubich & Schlichte 1985).

    F is a (..., N + 1, d) view of `rows`, one row of history per state
    component, which the far field transforms. The far-field sums of step
    n wait in the slots that step n fills: F[..., n + 1, :] holds the
    predictor's and states[n + 1] the corrector's, so they take no memory
    of their own. The constructor evaluates F[0] and starts them at x0 and
    at x0 + cc * c0[n] * F[0]: the kernels give F[0] the weight ak_n, and
    c0[n] = a0[n] - ak_n makes it a0[n].
    """

    def __init__(self, sys, cfg):
        N = self.n_steps = cfg.n_steps
        self.h = cfg.h
        self.alpha = cfg.alpha
        self.cp = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 1.0)
        self.cc = cfg.h ** cfg.alpha / math.gamma(cfg.alpha + 2.0)
        b, a = _lag_weights(_BLOCK, cfg.alpha)
        near = np.stack([self.cp * b, self.cc * a])[:, ::-1].copy()
        # windows[k] weighs the k + 1 values of a block up to its k-th
        self.windows = [near[:, _BLOCK - 1 - k :] for k in range(_BLOCK)]
        x0 = self.x0 = as_states(cfg.x0, sys.dim)
        self.rows = np.empty((x0.size, N + 1))
        self.F = np.swapaxes(self.rows.reshape(x0.shape + (N + 1,)), -1, -2)
        self.states = np.empty((N + 1,) + x0.shape)
        self.states[0] = x0
        f0 = np.asarray(sys.field(x0), dtype=float)
        if f0.shape != x0.shape:
            raise ValueError(
                f"field of {sys.name} returned shape {f0.shape}, expected {x0.shape}"
            )
        self.F[..., 0, :] = self.check(f0, "initial field value", 0)
        c0 = _first_corrector_weights(np.arange(N), self.alpha)
        c0 -= _lag_weights(N, self.alpha)[1]
        self.F[..., 1:, :] = x0[..., None, :]
        np.outer(self.cc * c0, self.rows[:, 0], out=self.states[1:].reshape(N, -1))
        self.states[1:] += x0

    def check(self, value, what, step_index):
        """`value`, or NumericalError at `step_index` if it holds NaN or Inf."""
        if not np.isfinite(value).all():
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
        q, rest = divmod(j + 1, _BLOCK)
        o0 = q * _BLOCK
        if rest or o0 >= N:
            return
        from numpy.fft import irfft, rfft  # only runs longer than one block need it

        states = self.states.reshape(N + 1, -1)
        size = q & -q
        j0, o1 = o0 - size * _BLOCK, min(o0 + size * _BLOCK, N)
        # The data are zero from o0 - j0 on, so every output kept, o0 - j0
        # to o1 - j0 - 1, sees lags 1 to o1 - j0 - 1 only: nothing wraps at
        # any length from o1 - j0 on, and a 5-smooth one transforms fast.
        nfft = _fast_length(o1 - j0)
        kernels = [rfft(c * weights, nfft) for c, weights in
                   zip((self.cp, self.cc), _lag_weights(o1 - j0, self.alpha))]
        chunk = max(1, _FFT_VALUES // nfft)
        for i in range(0, len(rows), chunk):
            spectra = rfft(rows[i : i + chunk, j0:o0], nfft)
            slots = (rows[i : i + chunk, o0 + 1 : o1 + 1],
                     states[o0 + 1 : o1 + 1, i : i + chunk].T)
            for kernel, out in zip(kernels, slots):
                out += irfft(spectra * kernel, nfft)[:, o0 - j0 : o1 - j0]

    def steps(self, field, s, e, preds, check=_unchecked):
        """Steps s..e-1 on numpy arrays: states and field values s+1..e.

        A replay passes `check` = `self.check` to test every stage.
        """
        F, states, windows, cc = self.F, self.states, self.windows, self.cc
        for n in range(s, e):
            k = n % _BLOCK
            window = windows[k] @ F[..., n - k : n + 1, :]
            xp = window[..., 0, :] + F[..., n + 1, :]
            fp = check(field(xp), "predictor field value", n + 1)
            xc = window[..., 1, :] + states[n + 1] + cc * fp
            states[n + 1] = check(xc, "corrected state", n + 1)
            F[..., n + 1, :] = check(field(xc), "corrector field value", n + 1)
            if preds is not None:
                preds[n] = xp

    def float_steps(self, float_field, s, e, preds):
        """Steps s..e-1 of a lone run on Python floats, bitwise equal to `steps`.

        Each component takes the IEEE operations of `steps` in its order:
        xp = near_p + pending_p and xc = (near_c + pending_c) + cc * fp.
        """
        F, windows, cc = self.F, self.windows, self.cc
        pending = zip(F[s + 1 : e + 1].tolist(), self.states[s + 1 : e + 1].tolist())
        xps, xcs = [], []
        for n, (pp, pc) in zip(range(s, e), pending):
            k = n % _BLOCK
            wp, wc = (windows[k] @ F[n - k : n + 1]).tolist()
            xp = [w + p for w, p in zip(wp, pp)]
            xc = [(w + c) + cc * f for w, c, f in zip(wc, pc, float_field(xp))]
            F[n + 1] = float_field(xc)  # the next step's window reads it
            xps.append(xp)
            xcs.append(xc)
        self.states[s + 1 : e + 1] = xcs
        if preds is not None:
            preds[s:e] = xps


def integrate(sys, cfg, keep_predictor=False, on_rows=None):
    """Integrate the system over the whole horizon and return the trajectory.

    Deterministic: identical inputs give identical output arrays, and a
    batch member's equal its lone run's. Numerical failures (NaN/Inf from
    the field) raise NumericalError carrying the failing step index and time.

    The steps run in segments that end where `push` completes a block of
    field values, at most _BLOCK steps each, without per-step checks. One
    finiteness test over a segment's states and field values then accepts
    it. Non-finite values propagate, so a non-finite predictor field value
    also makes the corrected state non-finite and the test finds every
    failure. A segment that fails it, or in which the field raises, is
    restored and replayed with a check at every stage, which raises the
    NumericalError of the first failing one. Replay calls the field again
    on the same states, so it relies on the field being deterministic and
    free of side effects; in a failing segment the field may also see
    non-finite states after the first failure. A lone run of a system with
    a `float_field` steps on Python floats.

    `on_rows`, if given, is called after each accepted segment with a view
    of the states that became final: states[0..255], states[256..511] and
    so on up to states[N], _BLOCK rows each but the last, so a caller can
    write them out while the run goes on. A segment that raises passes no
    rows.
    """
    n_steps = cfg.n_steps
    field, float_field = sys.field, sys.float_field
    # overflow in the field is caught by the finiteness checks, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        scheme = _Scheme(sys, cfg)
        F, states = scheme.F, scheme.states
        preds = np.empty((n_steps,) + scheme.x0.shape) if keep_predictor else None
        on_floats = float_field is not None and scheme.x0.ndim == 1
        s = 0
        while s < n_steps:
            e = min(n_steps, ((s + 1) // _BLOCK + 1) * _BLOCK - 1)
            saved = F[..., s + 1 : e + 1, :].copy(), states[s + 1 : e + 1].copy()
            try:
                if on_floats:
                    scheme.float_steps(float_field, s, e, preds)
                else:
                    scheme.steps(field, s, e, preds)
                clean = (np.isfinite(states[s + 1 : e + 1]).all()
                         and np.isfinite(F[..., s + 1 : e + 1, :]).all())
            except Exception:
                clean = False
            if not clean:
                F[..., s + 1 : e + 1, :], states[s + 1 : e + 1] = saved
                scheme.steps(field, s, e, preds, scheme.check)
            scheme.push(e)
            if on_rows is not None:
                on_rows(states[s + 1 if s else 0 : e + 1])
            s = e

    return Trajectory(times=cfg.times(), states=states, predictor_states=preds)


def integrate_batches(build, cfg):
    """Integrate the runs of a (B, d) `cfg.x0` in batches; yields one list of
    (b, Trajectory or NumericalError) pairs per batch, in increasing b.

    `build(rows)` returns the batched system of the runs `rows`, indices
    into x0. A batch is consecutive runs whose field history fits in
    BATCH_BYTES, and its runs share one `times` array. A run is bitwise the
    same in any batch, so the runs a NumericalError names fail as they would
    alone, and the others rerun as one batch until a batch succeeds.
    """
    x0 = np.array(cfg.x0)
    if x0.ndim != 2:
        raise ValueError(f"integrate_batches needs a (B, d) x0, got shape {x0.shape}")
    cap = max(1, BATCH_BYTES // (8 * x0.shape[1] * (cfg.n_steps + 1)))
    for start in range(0, len(x0), cap):
        batch = range(start, min(start + cap, len(x0)))
        outcomes, left = {}, list(batch)
        while left:
            try:
                traj = integrate(build(left), replace(cfg, x0=x0[left]))
                outcomes.update((b, Trajectory(traj.times, traj.states[:, i]))
                                for i, b in enumerate(left))
                break
            except NumericalError as exc:
                outcomes.update((left[row], exc) for row in exc.rows)
                left = [b for b in left if b not in outcomes]
        yield [(b, outcomes[b]) for b in batch]


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outcome of an empirical order study.

    `max_errors[i]` is the max-norm error of the run with step size
    `h_values[i]`. `slope` is the least-squares slope of log(error) against
    log(h) and `residual` the RMS deviation of the fit; both are None when
    no order is fitted or the study is degenerate (errors at solver
    precision, no order to fit).
    """

    h_values: tuple
    max_errors: tuple
    slope: Optional[float]
    residual: Optional[float]
    degenerate: bool


def convergence_order(sys, alpha, oracle, h_list, tau, x0, t_min=0.0):
    """Max-norm errors against an analytic solution, one per step size, and
    the empirical convergence order they show.

    Each step size must divide the horizon tau, and `oracle(t)` return the
    exact solution to 1e-10 or better. Errors are the max norm over grid
    points with t >= t_min. All input is checked, and the oracle evaluated,
    before the first run.

    An order is fitted only to three or more step sizes, each half the
    previous; for any other list `slope` and `residual` are None and
    `degenerate` False. A fitted study is degenerate when no error exceeds
    1e-14 of the largest |oracle value| compared, whatever the scale of x0.

    For alpha < 1 the exact solution generally has unbounded derivatives at
    t = 0; the first-step error then decays like h^(2*alpha) while interior
    errors decay like h^(1+alpha), so a full-grid fit understates the
    interior order. Pass t_min > 0 to fit on a fixed window clear of the
    origin.
    """
    alpha = validate_alpha(alpha)
    hs = as_floats(list(h_list), "step sizes must be positive and finite").tolist()
    if not hs:
        raise ValueError("need at least one step size")
    window = "tau must be positive and t_min non-negative, both finite"
    tau, t_min = as_floats((tau, t_min), window).tolist()
    if not (0.0 < tau < math.inf and 0.0 <= t_min < math.inf):
        raise ValueError(window)
    if t_min > tau:
        raise ValueError(f"no grid point lies in t >= t_min = {t_min} up to the horizon {tau}")
    studies = []
    for h in hs:
        if not 0.0 < h < math.inf:
            raise ValueError("step sizes must be positive and finite")
        if tau / h > MAX_STEPS + 0.5:  # also when tau / h overflows
            raise ValueError(f"step size {h} needs over {MAX_STEPS} steps to reach {tau}")
        n_steps = round(tau / h)
        if abs(n_steps * h - tau) > 1e-9 * tau:
            raise ValueError(f"step size {h} does not divide the horizon {tau}")
        cfg = SolverConfig(alpha=alpha, h=h, n_steps=n_steps, x0=x0)
        times = cfg.times()
        keep = times >= t_min - 1e-12
        times = times[keep]
        exact = np.array([oracle(t) for t in times], dtype=float)
        if not np.isfinite(exact).all():
            t = next(t for t, value in zip(times, exact) if not np.isfinite(value).all())
            raise ValueError(f"oracle is not finite at t = {t:.10g}")
        studies.append((cfg, keep, exact))
    errors, scale = [], 0.0
    for cfg, keep, exact in studies:
        states = integrate(sys, cfg).states[keep]
        # right-align each oracle value with its state, as `state - exact` would
        exact = np.expand_dims(exact, tuple(range(1, states.ndim - exact.ndim + 1)))
        errors.append(float(np.max(np.abs(states - exact), initial=0.0)))
        scale = max(scale, float(np.max(np.abs(exact), initial=0.0)))

    report = ConvergenceReport(tuple(hs), tuple(errors), None, None, False)
    if len(hs) < 3 or not all(math.isclose(b, a / 2.0, rel_tol=1e-6)
                              for a, b in zip(hs, hs[1:])):
        return report
    if max(errors) <= 1e-14 * scale:
        return replace(report, degenerate=True)
    log_h = np.log(hs)
    # every positive float is at least 5e-324, so only exact zeros are raised
    log_e = np.log(np.maximum(errors, 5e-324))
    coeffs = np.polyfit(log_h, log_e, 1)
    fit = np.polyval(coeffs, log_h)
    residual = float(np.sqrt(np.mean((log_e - fit) ** 2)))
    return replace(report, slope=float(coeffs[0]), residual=residual)
