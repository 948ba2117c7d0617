"""Command line front end.

Subcommands:
    simulate     integrate a configured run; writes trajectory.csv,
                 per-component orbit plots fig1.svg..figN.svg and report.kv;
                 a run that artifacts.writer_count gives a writer streams its
                 CSV to it while it integrates, or writes it inline if that fails
    stability    classify an equilibrium of a registered system
    gains-check  closed-form feedback-gain diagnostics for the controlled
                 Maxwell-Bloch model at either equilibrium family
    convergence  empirical order study against an analytic solution
    sweep        run several simulate configs, each writing the bytes of its
                 lone simulate; solver.integrate_batches integrates those that
                 share (system, alpha, h, steps), and the writers that
                 artifacts.writer_count gives a batch write it while the next
                 is integrated, inline if one fails (--jobs is ignored); the
                 summaries come group by group, in the order of each group's
                 first config, and in command-line order within a group

Both kinds of writer are forked and reaped in artifacts, where collections
skip the objects a writer shares with this process while it lives.

A command loads the fracdyn modules it runs on first use, when it starts:
`stability` and `gains-check` never load the solver or the writers, and no
writer compiles a module. `run`, the `fracdyn` script, exits without the
collector's teardown.

Exit codes go by exception type alone: 0 success, 2 usage error or input
that a command cannot serve (any ValueError or OSError), 3 a NumericalError
during integration (the failing step index goes to stderr), 141 (128 +
SIGPIPE) when the reader of standard output goes away, as in `| head`. Any
other exception is a bug and propagates.
"""

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np


def _resolve(cfg):
    """Turn an ExperimentConfig into (system, x0, target point or None)."""
    from . import artifacts, expconfig, maxbloch, registry
    target = None
    if cfg.target is not None:
        target = maxbloch.equilibrium_point(cfg.target[0], cfg.target[1:])
    sysdef = registry.build_system(cfg.system, gains=cfg.gains, target=target)
    if target is not None and target.size != sysdef.dim:
        raise expconfig.ConfigError("target dimension does not match the system")
    if cfg.x0 is None:
        with np.errstate(over="ignore"):  # SolverConfig refuses a non-finite x0
            x0 = target + cfg.epsilon
    else:
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.size != sysdef.dim:
            raise expconfig.ConfigError(f"x0 has {x0.size} components, system needs {sysdef.dim}")
    if (target is not None and np.isfinite(x0).all()
            and not np.isfinite(artifacts.distance(x0, target))):
        raise expconfig.ConfigError("the distance from x0 to the target leaves the float range")
    return sysdef, x0, target


def _solver_config(cfg, x0):
    from .solver import SolverConfig
    return SolverConfig(alpha=cfg.alpha, h=cfg.h, n_steps=cfg.steps, x0=x0)


def _run_experiment(cfg):
    from . import artifacts, solver
    sysdef, x0, target = _resolve(cfg)
    solver_cfg = _solver_config(cfg, x0)
    writer, streamed = None, False
    if artifacts.writer_count([(cfg.steps + 1, x0.size)]):
        with contextlib.suppress(OSError):  # no process to spare: write the CSV inline
            writer = artifacts.CsvWriter(Path(cfg.output_dir) / "trajectory.csv",
                                         solver_cfg.times(), x0.size)
    if writer is None:
        traj = solver.integrate(sysdef, solver_cfg)
    else:
        try:
            traj = solver.integrate(sysdef, solver_cfg, on_rows=writer.send)
            writer.commit()
        finally:
            streamed = writer.reap()  # also when the run failed: see CsvWriter
    # a writer that failed or was killed leaves the CSV to write_artifacts
    write = artifacts.write_plots_and_report if streamed else artifacts.write_artifacts
    write(cfg, traj, target)
    _print_summary(cfg, traj, target)
    return 0


def _print_summary(cfg, traj, target):
    """Print the lines that follow a run's written artifacts."""
    from .artifacts import distance
    from .numkit import _fmt
    print("final state: " + " ".join(_fmt(v) for v in traj.states[-1]))
    if target is not None:
        print(f"initial distance to target: {_fmt(distance(traj.states[0], target))}")
        print(f"final distance to target: {_fmt(distance(traj.states[-1], target))}")
    print(f"wrote {Path(cfg.output_dir) / 'trajectory.csv'} and "
          f"{traj.states.shape[1]} figure(s)")


def _experiment_config(args):
    """The config file, if any, with every given flag overriding it."""
    from .expconfig import ConfigError, ExperimentConfig, load_config
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


def _cmd_stability(args):
    from . import maxbloch, registry, stability, systems
    if args.system == maxbloch.CONTROLLED_SYSTEM_NAME:
        raise ValueError("classify the controlled model by passing --gains "
                         f"with {maxbloch.SYSTEM_NAME}")
    sysdef = registry.build_system(args.system)
    if args.e1 is not None:
        point = maxbloch.e1(args.e1[0], args.e1[1])
    elif args.e2 is not None:
        point = maxbloch.e2(args.e2[0])
    else:
        point = np.asarray(args.point, dtype=float)
    if args.gains is not None:
        sysdef = systems.controlled(sysdef, args.gains, point)
    report = stability.classify_equilibrium(sysdef, point, args.alpha)
    print(report.to_kv() if args.format == "kv" else report.to_text())
    return 0


def _cmd_gains_check(args):
    from .stability import e1_gain_condition, e2_gain_condition
    rep = (e2_gain_condition(args.gains, *args.e2) if args.e2 is not None
           else e1_gain_condition(args.gains, *args.e1))
    print(rep.to_kv(args.alpha) if args.format == "kv" else rep.to_text(args.alpha))
    return 0


def _cmd_convergence(args):
    from . import registry, solver
    system = registry.LINEAR_DECAY if args.system is None else args.system
    oracle = registry.oracle_for(system, args.alpha, [args.x0])
    if oracle is None:
        raise ValueError(f"{system} has no analytic solution; pick {registry.LINEAR_DECAY}")
    sysdef = registry.build_system(system)
    rep = solver.convergence_order(sysdef, args.alpha, oracle, args.h_list, args.tau,
                                   [args.x0], t_min=args.t_min)
    print(f"{'h':>12} {'max error':>16}")
    for h, err in zip(rep.h_values, rep.max_errors):
        print(f"{h:>12.6g} {err:>16.6e}")
    if rep.degenerate:
        print("errors are identically zero at solver precision; order undefined")
    elif rep.slope is None:
        print("order: not fitted (need at least three halving step sizes)")
    else:
        print(f"fitted order: {rep.slope:.4f} (fit residual {rep.residual:.2e})")
    return 0


class _Member(NamedTuple):
    """A resolved sweep config and its position on the command line."""

    index: int
    cfg: "ExperimentConfig"
    x0: np.ndarray
    target: Optional[np.ndarray]


def _sweep_group(members):
    """Integrate one group's members; yields batches of (member, outcome) pairs."""
    from . import maxbloch, registry, solver
    cfg = members[0].cfg

    def build(rows):
        if cfg.system != maxbloch.CONTROLLED_SYSTEM_NAME:
            return registry.build_system(cfg.system)
        return registry.build_system(cfg.system, gains=[members[b].cfg.gains for b in rows],
                                     target=[members[b].target for b in rows])

    for batch in solver.integrate_batches(build, _solver_config(cfg, [m.x0 for m in members])):
        yield [(members[b], outcome) for b, outcome in batch]


def _write_share(runs):
    """Write the artifacts of the (member, trajectory) pairs `runs`."""
    from .artifacts import TemplateCache, write_artifacts
    cache = TemplateCache() if len(runs) > 1 else None
    for member, traj in runs:
        write_artifacts(member.cfg, traj, member.target, cache)


def _fork_writers(batch):
    """The pids of the writers writer_count picks for `batch`'s trajectories,
    each forked to write a strided share; none if it is written inline."""
    from . import artifacts, solver
    runs = [(member, traj) for member, traj in batch
            if not isinstance(traj, solver.NumericalError)]
    writers, pids = artifacts.writer_count([traj.states.shape for _, traj in runs]), []
    for share in range(writers):
        try:
            pids.append(artifacts.fork(functools.partial(_write_share, runs[share::writers])))
        except OSError:  # no process to spare: write the batch inline
            artifacts.reap(pids)
            return []
    return pids


def _cmd_sweep(args):
    from . import artifacts, expconfig, solver
    if args.jobs < 1:
        raise expconfig.ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    codes, configs = [0] * len(args.configs), {}
    for index, path in enumerate(args.configs):
        try:
            configs[index] = expconfig.load_config(path)
        except (ValueError, OSError) as exc:  # ConfigError, or a file that is not UTF-8
            print(f"error in {path}: {exc}", file=sys.stderr)
            codes[index] = 2
    outdirs = [Path(cfg.output_dir).resolve() for cfg in configs.values()]
    if len(set(outdirs)) != len(outdirs):
        raise expconfig.ConfigError("sweep configs must write to disjoint output directories")

    groups = {}
    for index, cfg in configs.items():
        try:
            _, x0, target = _resolve(cfg)
            _solver_config(cfg, x0)  # bad alpha, h or steps fail this config only
        except ValueError as exc:  # ConfigError is one
            print(f"error in {cfg.system} run: {exc}", file=sys.stderr)
            codes[index] = 2
            continue
        key = (cfg.system, cfg.alpha, cfg.h, cfg.steps)
        groups.setdefault(key, []).append(_Member(index, cfg, x0, target))

    # Each batch of (member, trajectory or NumericalError) pairs is finished
    # once the next one is integrated, while its writers, if any, write:
    # they are reaped before the next batch's writers fork. A batch without
    # writers, or with one that failed or was killed, is written inline in
    # member order, so a failing write ends the sweep at its member with the
    # error inline writing raises, though the writers may have written later
    # members of that batch. A member's summary or failure is printed once
    # its files are complete, so they come in group order, not command-line
    # order; the empty batch last finishes the final one.
    previous, pids = [], []
    try:
        for batch in itertools.chain(*map(_sweep_group, groups.values()), [[]]):
            inline = not pids or not artifacts.reap(pids)
            cache = artifacts.TemplateCache() if inline and len(previous) > 1 else None
            for member, outcome in previous:
                if isinstance(outcome, solver.NumericalError):
                    print(f"numerical failure in {member.cfg.system} run at step "
                          f"{outcome.step_index}: {outcome}", file=sys.stderr)
                    codes[member.index] = 3
                    continue
                if inline:
                    artifacts.write_artifacts(member.cfg, outcome, member.target, cache)
                _print_summary(member.cfg, outcome, member.target)
            previous, pids = batch, _fork_writers(batch)
    finally:
        artifacts.reap(pids)  # writers still running when the sweep fails

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


# argparse reads -1 and -.5 as negative numbers but -1e-3 as an unknown
# option. No fracdyn option starts with a digit, so such a token is a number.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser, for the command and each subcommand, that also reads
    negative numbers in exponent form as values."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser():
    parser = _Parser(
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

    gains = subs.add_parser("gains-check", help="feedback gain diagnostics")
    gains.add_argument("--gains", type=float, nargs=5, required=True,
                    metavar=("K1", "K2", "K3", "K4", "K5"))
    family = gains.add_mutually_exclusive_group(required=True)
    family.add_argument("--e1", type=float, nargs=2, metavar=("M", "N"))
    family.add_argument("--e2", type=float, nargs=1, metavar="M")
    gains.add_argument("--alpha", type=float, help="also report the verdict at this order")
    gains.add_argument("--format", choices=("text", "kv"), default="text")
    gains.set_defaults(func=_cmd_gains_check)

    conv = subs.add_parser("convergence", help="empirical order study")
    conv.add_argument("--system")  # linear-decay, the system with an analytic solution
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
    except BrokenPipeError:
        # the reader closed stdout: stop quietly; output still buffered goes
        # to devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:  # ConfigError and DomainError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .solver import NumericalError  # looked up only once an error arrives
        if not isinstance(exc, NumericalError):
            raise
        print(f"numerical failure at step {exc.step_index}: {exc}", file=sys.stderr)
        return 3


def run():
    """The `fracdyn` script: main, then exit without the collector's teardown.
    gc.freeze moves every object out of reach of the collections that run at
    exit; atexit handlers and the flush of the standard streams still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
