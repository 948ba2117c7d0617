"""Command line front end.

Subcommands:
    simulate     integrate a configured run; writes trajectory.csv,
                 per-component orbit plots fig1.svg..figN.svg and report.kv
    stability    classify an equilibrium of a registered system
    gains-check  closed-form feedback-gain diagnostics for the controlled
                 Maxwell-Bloch model at either equilibrium family
    convergence  empirical order study against an analytic solution
    sweep        run several simulate configs concurrently

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure
during integration (the failing step index goes to stderr).
"""

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import maxbloch, registry
from .expconfig import ConfigError, ExperimentConfig, load_config
from .numkit import DomainError, poly_roots
from .solver import NumericalError, SolverConfig, _max_errors, convergence_order, integrate
from .stability import (
    classify_equilibrium,
    cubic_from_gains,
    matignon_classify,
    routh_hurwitz_cubic,
    stability_alpha_threshold,
    e2_gain_condition,
)
from .svgplot import line_chart
from .systems import controlled


def _fmt(x):
    return f"{float(x):.17g}"


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
    dim = traj.states.shape[1]
    lines = ["step,t," + ",".join(f"x{i + 1}" for i in range(dim))]
    for idx in range(traj.states.shape[0]):
        row = [str(idx), _fmt(traj.times[idx])]
        row += [_fmt(v) for v in traj.states[idx]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    path.write_text("\n".join(f"{k}={v}" for k, v in pairs) + "\n", encoding="utf-8")


def _run_experiment(cfg):
    sysdef, x0, target = _resolve(cfg)
    solver_cfg = SolverConfig(alpha=cfg.alpha, h=cfg.h, n_steps=cfg.steps, x0=x0)
    traj = integrate(sysdef, solver_cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trajectory.csv", traj)
    for i in range(sysdef.dim):
        chart = line_chart(traj.states[:, i], y_label=f"x^{i + 1}(n)", x_label="n")
        (outdir / f"fig{i + 1}.svg").write_text(chart, encoding="utf-8")
    _write_report_kv(outdir / "report.kv", cfg, traj, target)
    print("final state: " + " ".join(_fmt(v) for v in traj.states[-1]))
    if target is not None:
        print(f"initial distance to target: {_fmt(np.linalg.norm(traj.states[0] - target))}")
        print(f"final distance to target: {_fmt(np.linalg.norm(traj.states[-1] - target))}")
    print(f"wrote {outdir / 'trajectory.csv'} and {sysdef.dim} figure(s)")
    return 0


def _experiment_config(args):
    if args.config:
        cfg = load_config(args.config)
        # explicit flags override file values
        changes = {}
        for name in ("system", "alpha", "h", "steps", "seed", "output"):
            value = getattr(args, name, None)
            if value is not None:
                changes["output_dir" if name == "output" else name] = value
        if args.x0 is not None:
            changes["x0"] = tuple(args.x0)
            changes["epsilon"] = None
        if args.epsilon is not None:
            changes["epsilon"] = args.epsilon
            changes["x0"] = None
        if args.gains is not None:
            changes["gains"] = tuple(args.gains)
        target = _target_from_args(args)
        if target is not None:
            changes["target"] = target
        return dataclasses.replace(cfg, **changes)
    missing = [name for name in ("system", "alpha", "h", "steps")
               if getattr(args, name) is None]
    if missing:
        raise ConfigError("missing required options: " + ", ".join(missing))
    return ExperimentConfig(
        system=args.system,
        alpha=args.alpha,
        h=args.h,
        steps=args.steps,
        x0=tuple(args.x0) if args.x0 is not None else None,
        epsilon=args.epsilon,
        gains=tuple(args.gains) if args.gains is not None else None,
        target=_target_from_args(args),
        seed=args.seed if args.seed is not None else 0,
        output_dir=args.output if args.output is not None else ".",
    )


def _target_from_args(args):
    if getattr(args, "target_e1", None) is not None:
        m, n = args.target_e1
        return ("e1", m, n)
    if getattr(args, "target_e2", None) is not None:
        return ("e2", args.target_e2[0])
    return None


def _cmd_simulate(args):
    return _run_experiment(_experiment_config(args))


def _point_from_args(args):
    given = [x is not None for x in (args.e1, args.e2, args.point)]
    if sum(given) != 1:
        raise ConfigError("give exactly one of --e1 M N, --e2 M or --point")
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


def _kv_print(pairs):
    print("\n".join(f"{k}={v}" for k, v in pairs))


def _eig_lines(eigs):
    return [f"  {_fmt(l.real)} {l.imag:+.17g}i" for l in eigs]


def _threshold_line(threshold):
    if threshold <= 0.0:
        return "argument-test threshold: unstable at every order"
    if threshold >= 1.0:
        return "argument-test threshold: stable for every alpha in (0, 1]"
    return f"argument-test threshold: stable for alpha < {_fmt(threshold)}"


def _cmd_gains_check(args):
    gains = list(args.gains)
    if args.e2 is not None:
        rep = e2_gain_condition(gains, args.e2[0])
        threshold = stability_alpha_threshold(rep.eigenvalues)
        if args.format == "kv":
            pairs = [("family", "e2"), ("m", _fmt(rep.m)),
                     ("delta1", _fmt(rep.delta1)), ("delta2", _fmt(rep.delta2)),
                     ("u", _fmt(rep.u)), ("v", _fmt(rep.v))]
            for i, lam in enumerate(rep.eigenvalues, start=1):
                pairs += [(f"eig_{i}_re", _fmt(lam.real)), (f"eig_{i}_im", _fmt(lam.imag))]
            pairs += [(f"condition_{k}", "yes" if v else "no")
                      for k, v in rep.conditions.items()]
            pairs += [("case", rep.case),
                      ("case_condition", {True: "yes", False: "no", None: "n/a"}[rep.case_condition]),
                      ("disagreement", "yes" if rep.disagreement else "no"),
                      ("stable_all_alpha", "yes" if rep.stable_all_alpha else "no"),
                      ("alpha_threshold", _fmt(threshold))]
            if args.alpha is not None:
                pairs.append(("verdict", str(rep.verdict(args.alpha))))
            _kv_print(pairs)
        else:
            print(f"equilibrium family e2, m = {_fmt(rep.m)}")
            print(f"delta1 = {_fmt(rep.delta1)}   delta2 = {_fmt(rep.delta2)}")
            print(f"u = {_fmt(rep.u)}   v = {_fmt(rep.v)}")
            print("eigenvalues:")
            print("\n".join(_eig_lines(rep.eigenvalues)))
            held = [k for k, v in rep.conditions.items() if v] or ["none"]
            print(f"catalogued conditions held: {', '.join(held)} "
                  f"(sign case {rep.case})")
            if rep.disagreement:
                print("note: catalogued conditions disagree with the eigenvalue "
                      "verdict; the eigenvalue verdict is authoritative")
            print("stable for all alpha in (0, 1]: "
                  + ("yes" if rep.stable_all_alpha else "no"))
            print(_threshold_line(threshold))
            if args.alpha is not None:
                print(f"verdict at alpha = {args.alpha:g}: {rep.verdict(args.alpha)}")
        return 0

    m, n = args.e1
    cubic = cubic_from_gains(gains[2], gains[3], gains[4], m, n)
    rh = routh_hurwitz_cubic(cubic)
    eigs = [complex(-gains[0]), complex(-gains[1])] + list(poly_roots(cubic.polynomial()))
    threshold = stability_alpha_threshold(eigs)
    if args.format == "kv":
        pairs = [("family", "e1"), ("m", _fmt(m)), ("n", _fmt(n)),
                 ("a1", _fmt(cubic.a1)), ("a2", _fmt(cubic.a2)), ("a3", _fmt(cubic.a3)),
                 ("discriminant", _fmt(cubic.discriminant)),
                 ("routh_hurwitz", str(rh)),
                 ("alpha_range", rh.alpha_range or "undecided")]
        for i, lam in enumerate(eigs, start=1):
            pairs += [(f"eig_{i}_re", _fmt(lam.real)), (f"eig_{i}_im", _fmt(lam.imag))]
        pairs.append(("alpha_threshold", _fmt(threshold)))
        if args.alpha is not None:
            pairs.append(("verdict", str(matignon_classify(eigs, args.alpha))))
        _kv_print(pairs)
    else:
        print(f"equilibrium family e1, m = {_fmt(m)}, n = {_fmt(n)}")
        print(f"a1 = {_fmt(cubic.a1)}   a2 = {_fmt(cubic.a2)}   a3 = {_fmt(cubic.a3)}")
        print(f"D(P) = {_fmt(cubic.discriminant)}")
        range_text = rh.alpha_range
        print(f"routh-hurwitz: {rh}"
              + (f" (guaranteed stable for alpha in {range_text})" if range_text else ""))
        print("eigenvalues:")
        print("\n".join(_eig_lines(eigs)))
        print(_threshold_line(threshold))
        if args.alpha is not None:
            print(f"verdict at alpha = {args.alpha:g}: "
                  f"{matignon_classify(eigs, args.alpha)}")
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


def _cmd_sweep(args):
    configs = [load_config(path) for path in args.configs]
    outdirs = [Path(cfg.output_dir).resolve() for cfg in configs]
    if len(set(outdirs)) != len(outdirs):
        raise ConfigError("sweep configs must write to disjoint output directories")
    jobs = args.jobs or min(4, len(configs))

    def run(cfg):
        try:
            return _run_experiment(cfg)
        except (ConfigError, ValueError) as exc:
            print(f"error in {cfg.system} run: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure in {cfg.system} run at step "
                  f"{exc.step_index}: {exc}", file=sys.stderr)
            return 3

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        codes = list(pool.map(run, configs))
    for path, code in zip(args.configs, codes):
        print(f"{path}: {'ok' if code == 0 else f'failed (exit {code})'}")
    return max(codes)


def _add_simulate_options(sub):
    sub.add_argument("--config", help="experiment configuration file")
    sub.add_argument("--system", help="registered system name")
    sub.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
    sub.add_argument("--h", type=float, help="step size")
    sub.add_argument("--steps", type=int, help="number of steps")
    sub.add_argument("--x0", type=float, nargs="+", help="explicit initial state")
    sub.add_argument("--epsilon", type=float,
                     help="offset every target component by this amount instead of --x0")
    sub.add_argument("--gains", type=float, nargs="+", help="feedback gains")
    sub.add_argument("--target-e1", type=float, nargs=2, metavar=("M", "N"),
                     help="target equilibrium (M, N, 0, 0, 0)")
    sub.add_argument("--target-e2", type=float, nargs=1, metavar="M",
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
    stab.add_argument("--e1", type=float, nargs=2, metavar=("M", "N"))
    stab.add_argument("--e2", type=float, nargs=1, metavar="M")
    stab.add_argument("--point", type=float, nargs="+", help="explicit point")
    stab.add_argument("--gains", type=float, nargs="+",
                      help="classify the feedback-controlled system pinned at the point")
    stab.add_argument("--format", choices=("text", "kv"), default="text")
    stab.set_defaults(func=_cmd_stability)

    gc = subs.add_parser("gains-check", help="feedback gain diagnostics")
    gc.add_argument("--gains", type=float, nargs=5, required=True,
                    metavar=("K1", "K2", "K3", "K4", "K5"))
    gc.add_argument("--e1", type=float, nargs=2, metavar=("M", "N"))
    gc.add_argument("--e2", type=float, nargs=1, metavar="M")
    gc.add_argument("--alpha", type=float, help="also report the verdict at this order")
    gc.add_argument("--format", choices=("text", "kv"), default="text")
    gc.set_defaults(func=_cmd_gains_check_dispatch)

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

    sweep = subs.add_parser("sweep", help="run several configs concurrently")
    sweep.add_argument("configs", nargs="+", help="configuration files")
    sweep.add_argument("--jobs", type=int, help="worker threads")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_gains_check_dispatch(args):
    if (args.e1 is None) == (args.e2 is None):
        raise ConfigError("give exactly one of --e1 M N or --e2 M")
    return _cmd_gains_check(args)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure at step {exc.step_index}: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
