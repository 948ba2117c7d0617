"""Command line front end.

Subcommands:
    simulate     integrate a configured run; writes trajectory.csv,
                 per-component orbit plots fig1.svg..figN.svg and report.kv
    stability    classify an equilibrium of a registered system
    gains-check  closed-form feedback-gain diagnostics for the controlled
                 Maxwell-Bloch model at either equilibrium family
    convergence  empirical order study against an analytic solution
    sweep        run several simulate configs, batched: configs that share
                 (system, alpha, h, steps) are integrated together from a
                 (B, d) initial state, then written out, each with the
                 bytes its lone simulate writes; a sweep with enough to
                 write forks writer processes, one per CPU, that write one
                 batch's artifacts while this process integrates the next;
                 unless a write fails, the output does not depend on them
                 (--jobs is accepted and ignored)

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure
during integration (the failing step index goes to stderr), 141 (128 +
SIGPIPE) when the reader of standard output goes away, as in `| head`.
"""

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import maxbloch, registry
from .expconfig import ConfigError, ExperimentConfig, load_config
from .numkit import DomainError
from .solver import (
    NumericalError,
    SolverConfig,
    Trajectory,
    _max_errors,
    convergence_order,
    integrate,
)
from .stability import _fmt, _kv_join, classify_equilibrium, e1_gain_condition, e2_gain_condition
from .svgplot import line_chart
from .systems import controlled

# Largest field history, B*d*(N + 1) float64 values, of one sweep batch:
# 16 configs of the 5-D model at N=2000. The solver's far-field sums wait in
# the unfilled part of this history, so it also bounds their memory; only
# the transform temporaries of one block come on top. A 64-config sweep at
# N=2000 peaks at 34.8 MB with this cap; half of it (32.9 MB) was slower
# and twice it (38.3 MB) no faster.
SWEEP_BATCH_BYTES = 5 * 2**18

# Writing one member's artifacts inline takes about 2.5 ms plus 2 us per
# trajectory value (5-D model: 6.6 ms at N=300, 23 ms at N=2000). Importing,
# forking and shutting down the writer pool costs about 45 ms, and on two
# CPUs the pool was slower than inline writing up to about 0.15 s of writes
# (12 configs at N=1000, 4 at N=2000) and faster from about 0.3 s (16 at
# N=2000, 24 at N=1000, 48 at N=300); sweeps that would write for less than
# POOL_MIN_WRITE_S write inline.
WRITE_MEMBER_S = 2.5e-3
WRITE_VALUE_S = 2e-6
POOL_MIN_WRITE_S = 0.2


def _resolve(cfg):
    """Turn an ExperimentConfig into (system, x0, target point or None)."""
    target = None
    if cfg.target is not None:
        target = maxbloch.equilibrium_point(cfg.target[0], cfg.target[1:])
    sysdef = registry.build_system(cfg.system, gains=cfg.gains, target=target)
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.size != sysdef.dim:
            raise ConfigError(f"x0 has {x0.size} components, system needs {sysdef.dim}")
    else:
        if target is None or target.size != sysdef.dim:
            raise ConfigError("epsilon shorthand needs a target of matching dimension")
        x0 = target + cfg.epsilon
    if target is not None and target.size != sysdef.dim:
        raise ConfigError("target dimension does not match the system")
    return sysdef, x0, target


def _write_csv(path, traj):
    # one format string per row, rows streamed: no text copy of the whole table
    dim = traj.states.shape[1]
    row = "%d" + ",%.17g" * (dim + 1) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        out.write("step,t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n")
        out.writelines(row % (idx, t, *x) for idx, (t, x) in
                       enumerate(zip(traj.times.tolist(), map(np.ndarray.tolist, traj.states))))


def _write_report_kv(path, cfg, traj, target):
    final = traj.states[-1]
    pairs = [
        ("system", cfg.system),
        ("alpha", _fmt(cfg.alpha)),
        ("h", _fmt(cfg.h)),
        ("steps", str(cfg.steps)),
        ("seed", str(cfg.seed)),
    ]
    for i, v in enumerate(traj.states[0], start=1):
        pairs.append((f"x0_{i}", _fmt(v)))
    for i, v in enumerate(final, start=1):
        pairs.append((f"final_{i}", _fmt(v)))
    if target is not None:
        for i, v in enumerate(target, start=1):
            pairs.append((f"target_{i}", _fmt(v)))
        pairs.append(("initial_distance", _fmt(np.linalg.norm(traj.states[0] - target))))
        pairs.append(("final_distance", _fmt(np.linalg.norm(final - target))))
    path.write_text(_kv_join(pairs) + "\n", encoding="utf-8")


def _solver_config(cfg, x0):
    return SolverConfig(alpha=cfg.alpha, h=cfg.h, n_steps=cfg.steps, x0=x0)


def _run_experiment(cfg):
    sysdef, x0, target = _resolve(cfg)
    traj = integrate(sysdef, _solver_config(cfg, x0))
    _write_artifacts(cfg, traj, target)
    _print_summary(cfg, traj, target)
    return 0


def _write_artifacts(cfg, traj, target):
    """Write trajectory.csv, fig1.svg..figd.svg and report.kv of one run.

    Touches no standard stream: sweep writers run it in worker processes.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trajectory.csv", traj)
    for i in range(traj.states.shape[1]):
        chart = line_chart(traj.states[:, i], y_label=f"x^{i + 1}(n)", x_label="n")
        (outdir / f"fig{i + 1}.svg").write_text(chart, encoding="utf-8")
    _write_report_kv(outdir / "report.kv", cfg, traj, target)


def _print_summary(cfg, traj, target):
    """Print the lines that follow a run's written artifacts."""
    print("final state: " + " ".join(_fmt(v) for v in traj.states[-1]))
    if target is not None:
        print(f"initial distance to target: {_fmt(np.linalg.norm(traj.states[0] - target))}")
        print(f"final distance to target: {_fmt(np.linalg.norm(traj.states[-1] - target))}")
    print(f"wrote {Path(cfg.output_dir) / 'trajectory.csv'} and "
          f"{traj.states.shape[1]} figure(s)")


def _experiment_config(args):
    """The config file, if any, with every given flag overriding it."""
    changes = {"output_dir" if name == "output" else name: getattr(args, name)
               for name in ("system", "alpha", "h", "steps", "seed", "output")
               if getattr(args, name) is not None}
    if args.x0 is not None:
        changes.update(x0=tuple(args.x0), epsilon=None)
    if args.epsilon is not None:
        changes.update(epsilon=args.epsilon, x0=None)
    if args.gains is not None:
        changes["gains"] = tuple(args.gains)
    if args.target_e1 is not None:
        changes["target"] = ("e1", *args.target_e1)
    if args.target_e2 is not None:
        changes["target"] = ("e2", *args.target_e2)
    if args.config:
        return dataclasses.replace(load_config(args.config), **changes)
    missing = [name for name in ("system", "alpha", "h", "steps") if name not in changes]
    if missing:
        raise ConfigError("missing required options: " + ", ".join(missing))
    return ExperimentConfig(**changes)


def _cmd_simulate(args):
    return _run_experiment(_experiment_config(args))


def _point_from_args(args):
    if args.e1 is not None:
        return maxbloch.e1(args.e1[0], args.e1[1])
    if args.e2 is not None:
        return maxbloch.e2(args.e2[0])
    return np.asarray(args.point, dtype=float)


def _cmd_stability(args):
    if args.system == maxbloch.CONTROLLED_SYSTEM_NAME:
        raise ConfigError("classify the controlled model by passing --gains "
                          f"with {maxbloch.SYSTEM_NAME}")
    sysdef = registry.build_system(args.system)
    point = _point_from_args(args)
    if args.gains is not None:
        sysdef = controlled(sysdef, args.gains, point)
    report = classify_equilibrium(sysdef, point, args.alpha)
    print(report.to_kv() if args.format == "kv" else report.to_text())
    return 0


def _cmd_gains_check(args):
    rep = (e2_gain_condition(args.gains, *args.e2) if args.e2 is not None
           else e1_gain_condition(args.gains, *args.e1))
    print(rep.to_kv(args.alpha) if args.format == "kv" else rep.to_text(args.alpha))
    return 0


def _cmd_convergence(args):
    oracle = registry.oracle_for(args.system, args.alpha, [args.x0])
    if oracle is None:
        raise ConfigError(
            f"{args.system} has no analytic solution; pick {registry.LINEAR_DECAY}"
        )
    sysdef = registry.build_system(args.system)
    hs = list(args.h_list)
    rep = None
    if len(hs) >= 3:
        rep = convergence_order(sysdef, args.alpha, oracle, hs, args.tau,
                                [args.x0], t_min=args.t_min)
        errors = rep.max_errors
    else:
        errors = _max_errors(sysdef, args.alpha, oracle, hs, args.tau,
                             [args.x0], t_min=args.t_min)
    print(f"{'h':>12} {'max error':>16}")
    for h, err in zip(hs, errors):
        print(f"{h:>12.6g} {err:>16.6e}")
    if rep is None:
        print("order: not fitted (need at least three halving step sizes)")
    elif rep.degenerate:
        print("errors are identically zero at solver precision; order undefined")
    else:
        print(f"fitted order: {rep.slope:.4f} (fit residual {rep.residual:.2e})")
    return 0


class _Member(NamedTuple):
    """A resolved sweep config and its position on the command line."""

    index: int
    cfg: ExperimentConfig
    x0: np.ndarray
    target: Optional[np.ndarray]


def _integrate_batch(batch):
    """Integrate sweep members that share (system, alpha, h, steps) from one
    (B, d) initial state; returns one trajectory per member."""
    cfg = batch[0].cfg
    params = {}
    if cfg.system == maxbloch.CONTROLLED_SYSTEM_NAME:
        params = {"gains": [m.cfg.gains for m in batch], "target": [m.target for m in batch]}
    sysdef = registry.build_system(cfg.system, **params)
    traj = integrate(sysdef, _solver_config(cfg, [m.x0 for m in batch]))
    return [Trajectory(traj.times, traj.states[:, b]) for b in range(len(batch))]


def _batch_cap(members):
    """Members of one group integrated per batch."""
    return max(1, SWEEP_BATCH_BYTES // (8 * members[0].x0.size * (members[0].cfg.steps + 1)))


def _sweep_group(members):
    """Integrate one group of sweep members in batches.

    Batches are consecutive slices of the group, capped by
    SWEEP_BATCH_BYTES; each is yielded as (member, trajectory or
    NumericalError) pairs in member order. A member's trajectory is bitwise
    the same in any batch, so the members a failure names fail exactly as
    they would alone, and the others are rerun as one batch until a batch
    succeeds.
    """
    cap = _batch_cap(members)
    for start in range(0, len(members), cap):
        batch = members[start : start + cap]
        outcomes = {}
        left = batch
        while left:
            try:
                outcomes.update(zip((m.index for m in left), _integrate_batch(left)))
                break
            except NumericalError as exc:
                outcomes.update((left[row].index, exc) for row in exc.rows)
                left = [m for m in left if m.index not in outcomes]
        yield [(member, outcomes[member.index]) for member in batch]


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _inline_write_seconds(members):
    """Estimated time to write the artifacts of `members` in this process."""
    return sum(WRITE_MEMBER_S + WRITE_VALUE_S * (m.cfg.steps + 1) * m.x0.size
               for m in members)


def _writer_count(batch, write_s, cpus):
    """Processes that write a sweep's artifacts, 1 meaning inline: one per
    CPU, but no more than the members of its largest batch (`batch`), the
    most ever written at once, and 1 when inline writing would take
    `write_s` < POOL_MIN_WRITE_S seconds."""
    if write_s < POOL_MIN_WRITE_S:
        return 1
    return max(1, min(batch, cpus))


def _written(batches, writers):
    """Write the artifacts of each batch of (member, outcome) pairs, where an
    outcome is a trajectory or a NumericalError, and yield the pairs in
    order once their files are complete.

    One writer writes inline. More writers are a pool of processes, forked
    on the first batch, that write one batch while the caller integrates
    the next. At most one batch is in flight: a batch is yielded only after
    the next one has been handed over, and the batch after that is not
    integrated until it has been yielded, which keeps peak memory flat.
    The pool is forked, not spawned, so workers inherit the imported
    modules instead of importing numpy again; it forks before any thread
    of its own starts. Workers ignore SIGINT, so an interrupt reaches the
    caller alone, and the pool is shut down with the generator.

    A write that fails ends the sweep at its member, as inline writing
    does, but the rest of that batch has been handed over already: the
    writes that had started are finished, so members after the failing
    one may have their files.
    """
    if writers == 1:
        for batch in batches:
            for member, outcome in batch:
                if not isinstance(outcome, NumericalError):
                    _write_artifacts(member.cfg, outcome, member.target)
                yield member, outcome
        return

    import multiprocessing
    import signal
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(writers, multiprocessing.get_context("fork"),
                               signal.signal, (signal.SIGINT, signal.SIG_IGN))
    try:
        in_flight = []
        for batch in itertools.chain(batches, [[]]):  # the empty batch drains the last one
            handed = [(member, outcome, None if isinstance(outcome, NumericalError) else
                       pool.submit(_write_artifacts, member.cfg, outcome, member.target))
                      for member, outcome in batch]
            for member, outcome, write in in_flight:
                if write is not None:
                    try:
                        write.result()  # re-raises the worker's exception, an OSError say
                    except BrokenExecutor as exc:
                        raise OSError("a writer process died while writing "
                                      f"{member.cfg.output_dir}") from exc
                yield member, outcome
            in_flight = handed
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    configs = [load_config(path) for path in args.configs]
    outdirs = [Path(cfg.output_dir).resolve() for cfg in configs]
    if len(set(outdirs)) != len(outdirs):
        raise ConfigError("sweep configs must write to disjoint output directories")

    codes = [0] * len(configs)
    groups = {}
    for index, cfg in enumerate(configs):
        try:
            _, x0, target = _resolve(cfg)
            _solver_config(cfg, x0)  # bad alpha, h or steps fail this config only
        except (ConfigError, ValueError) as exc:
            print(f"error in {cfg.system} run: {exc}", file=sys.stderr)
            codes[index] = 2
            continue
        key = (cfg.system, cfg.alpha, cfg.h, cfg.steps)
        groups.setdefault(key, []).append(_Member(index, cfg, x0, target))

    batches = (batch for members in groups.values() for batch in _sweep_group(members))
    largest = max((min(len(members), _batch_cap(members)) for members in groups.values()),
                  default=0)
    writes = _inline_write_seconds(m for members in groups.values() for m in members)
    writers = _writer_count(largest, writes, _cpu_count()) if hasattr(os, "fork") else 1
    with contextlib.closing(_written(batches, writers)) as written:
        for member, outcome in written:
            if isinstance(outcome, NumericalError):
                print(f"numerical failure in {member.cfg.system} run at step "
                      f"{outcome.step_index}: {outcome}", file=sys.stderr)
                codes[member.index] = 3
            else:
                _print_summary(member.cfg, outcome, member.target)

    for path, code in zip(args.configs, codes):
        print(f"{path}: {'ok' if code == 0 else f'failed (exit {code})'}")
    return max(codes)


def _add_simulate_options(sub):
    sub.add_argument("--config", help="experiment configuration file")
    sub.add_argument("--system", help="registered system name")
    sub.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
    sub.add_argument("--h", type=float, help="step size")
    sub.add_argument("--steps", type=int, help="number of steps")
    start = sub.add_mutually_exclusive_group()
    start.add_argument("--x0", type=float, nargs="+", help="explicit initial state")
    start.add_argument("--epsilon", type=float,
                       help="offset every target component by this amount instead of --x0")
    sub.add_argument("--gains", type=float, nargs="+", help="feedback gains")
    target = sub.add_mutually_exclusive_group()
    target.add_argument("--target-e1", type=float, nargs=2, metavar=("M", "N"),
                        help="target equilibrium (M, N, 0, 0, 0)")
    target.add_argument("--target-e2", type=float, nargs=1, metavar="M",
                        help="target equilibrium (0, 0, 0, 0, M)")
    sub.add_argument("--seed", type=int, help="seed recorded with the run")
    sub.add_argument("--output", help="output directory")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="Fractional-order dynamical systems toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate a configured run")
    _add_simulate_options(sim)
    sim.set_defaults(func=_cmd_simulate)

    stab = subs.add_parser("stability", help="classify an equilibrium")
    stab.add_argument("system", help="registered system name")
    stab.add_argument("--alpha", type=float, required=True)
    point = stab.add_mutually_exclusive_group(required=True)
    point.add_argument("--e1", type=float, nargs=2, metavar=("M", "N"))
    point.add_argument("--e2", type=float, nargs=1, metavar="M")
    point.add_argument("--point", type=float, nargs="+", help="explicit point")
    stab.add_argument("--gains", type=float, nargs="+",
                      help="classify the feedback-controlled system pinned at the point")
    stab.add_argument("--format", choices=("text", "kv"), default="text")
    stab.set_defaults(func=_cmd_stability)

    gc = subs.add_parser("gains-check", help="feedback gain diagnostics")
    gc.add_argument("--gains", type=float, nargs=5, required=True,
                    metavar=("K1", "K2", "K3", "K4", "K5"))
    family = gc.add_mutually_exclusive_group(required=True)
    family.add_argument("--e1", type=float, nargs=2, metavar=("M", "N"))
    family.add_argument("--e2", type=float, nargs=1, metavar="M")
    gc.add_argument("--alpha", type=float, help="also report the verdict at this order")
    gc.add_argument("--format", choices=("text", "kv"), default="text")
    gc.set_defaults(func=_cmd_gains_check)

    conv = subs.add_parser("convergence", help="empirical order study")
    conv.add_argument("--system", default=registry.LINEAR_DECAY)
    conv.add_argument("--alpha", type=float, required=True)
    conv.add_argument("--h-list", dest="h_list", type=float, nargs="+", required=True)
    conv.add_argument("--tau", type=float, default=1.0, help="horizon (default 1)")
    conv.add_argument("--x0", type=float, default=1.0)
    conv.add_argument("--t-min", dest="t_min", type=float, default=0.0,
                      help="fit errors only on grid points with t >= this "
                           "(excludes the t = 0 initial layer)")
    conv.set_defaults(func=_cmd_convergence)

    sweep = subs.add_parser("sweep", help="run several configs, batched")
    sweep.add_argument("configs", nargs="+", help="configuration files")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored (at least 1): the sweep picks its "
                            "artifact writer processes itself")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here rather than at exit
        return code
    except NumericalError as exc:
        print(f"numerical failure at step {exc.step_index}: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: stop quietly; output still buffered goes
        # to devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
