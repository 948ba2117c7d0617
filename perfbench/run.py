"""The fracdyn benchmark: seeded closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fracdyn checkout; it times the tree it sits in
(`src/` first on the path) and refuses to run where that tree is missing.

Workloads (one caller, each op starting when the previous one has ended):
  paper-cli           seeded cycles of the README's paper-scale commands
                      (simulate at N=500, stability, gains-check);
                      interpreter start-up and imports dominate
  long-horizon        one simulate at N=20000; the full-memory history sums
                      dominate
  gain-scan           one `sweep --jobs 2` over 64 seeded configs at N=2000;
                      per-step overhead, field calls and SVG writing dominate
  oracle-convergence  a convergence study on linear-decay; the
                      Mittag-Leffler oracle dominates

With --trace 0 every op is a fresh `python -m fracdyn.cli` process and the
run reports the end-to-end metrics: setup_s (median of 5 to 12
fresh-interpreter `import fracdyn.cli` times taken between ops across the
run), wall_s (median op wall time), peak_rss_mb
(median op peak RSS) and ok_ratio (share of attempted ops that passed).
An op fails on a non-zero exit, an output that does not match
reference.json, or artifacts that differ from those of an earlier op of
the same command in the run.

With --trace 1 the ops run in this process through `fracdyn.cli.main`,
alternately untraced and traced (see tracing.py), and the run reports the
per-layer metrics plus `-X importtime` import costs and the tracing
overhead. Spans are written to .perfbench_work/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it summarise the
run for a reader.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11      # import probes per run when ops are short enough
SETUP_MIN_REPEATS = 5
IMPORTTIME_REPEATS = 5
OP_TIMEOUT_S = 150.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import fracdyn.cli; "
                "print(repr(time.perf_counter() - t))")
TREE_PROBE = "import fracdyn; print(fracdyn.__file__)"


class TreeError(RuntimeError):
    """The checkout does not hold the fracdyn tree to be timed."""


def op_env():
    env = dict(os.environ)
    env.pop("FRACDYN_SEED", None)  # would override the seed stored in configs
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _inside(path, directory):
    return Path(path).resolve().is_relative_to(directory.resolve())


def check_tree(env, cwd):
    """Fail unless a fresh op process imports fracdyn from this checkout."""
    if not (SRC / "fracdyn" / "__init__.py").is_file():
        raise TreeError(f"no fracdyn package under {SRC}")
    probe = subprocess.run([sys.executable, "-c", TREE_PROBE], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=60)
    where = probe.stdout.strip()
    if probe.returncode != 0 or not _inside(where, SRC):
        raise TreeError(f"op processes import fracdyn from {where or probe.stderr.strip()!r}, "
                        f"not from {SRC}")


def import_tree():
    """Import fracdyn.cli from this checkout into the benchmark process."""
    sys.path.insert(0, str(SRC))
    import fracdyn.cli
    if not _inside(fracdyn.__file__, SRC):
        raise TreeError(f"imported fracdyn from {fracdyn.__file__}, not from {SRC}")
    return fracdyn.cli


def measure_import(env, cwd):
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    return float(probe.stdout)


def import_costs(env, cwd):
    """Median `-X importtime` cumulative seconds of numpy, mpmath and the rest
    of `import fracdyn.cli` (fracdyn's own modules and the stdlib they pull)."""
    rows = {"numpy": [], "mpmath": [], "fracdyn": []}
    for _ in range(IMPORTTIME_REPEATS):
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fracdyn.cli"],
                               cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
                               check=True)
        cumulative = {}
        for line in probe.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        numpy_s = cumulative.get("numpy", 0.0)
        mpmath_s = cumulative.get("mpmath", 0.0)
        rows["numpy"].append(numpy_s)
        rows["mpmath"].append(mpmath_s)
        rows["fracdyn"].append(cumulative.get("fracdyn.cli", 0.0) - numpy_s - mpmath_s)
    return {key: statistics.median(values) for key, values in rows.items()}


def run_process(argv, cwd, env):
    """Run one op process; (exit code, wall seconds, peak RSS MB, stdout, stderr)."""
    out_path, err_path = Path(cwd) / "op.stdout", Path(cwd) / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def run_in_process(cli, op, cwd):
    """Run one op through fracdyn.cli.main; (exit code, start, end, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # the op failed; the run goes on and counts it
        code = f"{type(exc).__name__}: {exc}"
    finally:
        end = perf_counter()
        os.chdir(previous)
    return code, start, end, out.getvalue(), err.getvalue()


class Checker:
    """Output checks of one run: reference comparison and determinism."""

    def __init__(self, workload):
        self.expected = workload.expected
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def check(self, op, code, stdout, stderr, workdir):
        self.attempted += 1
        problems = [] if code == 0 else [f"exit {code}: {stderr.strip()[-300:]}"]
        problems += workloads.check_outputs(self.expected[op.key], stdout, workdir)
        digests = workloads.artifact_digests(workdir)
        if digests != self.digests.setdefault(op.key, digests):
            problems.append("artifacts differ from an earlier run of the same command")
        if problems:
            self.failures.append((op.key, problems))
        return not problems


def fresh_outputs(workdir):
    shutil.rmtree(workdir / workloads.OUT, ignore_errors=True)


def closed_loop(workload, seconds, run_op):
    """Run whole cycles of ops until the next cycle would end past `seconds`."""
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for op in workload.cycles():
            run_op(op)
        now = perf_counter()
        if (now - start) + (now - cycle_start) > seconds:
            return now - start


def timed_run(workload, seconds, workdir, env, checker):
    """Op processes in a closed loop, with fresh-interpreter import probes
    spread over the run so that setup_s samples the whole run, not one moment."""
    walls, rss, imports = [], [], [measure_import(env, workdir)]
    command = [sys.executable, "-m", "fracdyn.cli"]
    start = perf_counter()

    def run_op(op):
        fresh_outputs(workdir)
        code, wall, peak, stdout, stderr = run_process(command + list(op.argv), workdir, env)
        checker.check(op, code, stdout, stderr, workdir)
        walls.append(wall)
        rss.append(peak)
        if perf_counter() - start >= len(imports) * seconds / SETUP_REPEATS:
            imports.append(measure_import(env, workdir))

    elapsed = closed_loop(workload, seconds, run_op)
    while len(imports) < SETUP_MIN_REPEATS:
        imports.append(measure_import(env, workdir))
    return walls, rss, imports, elapsed


def traced_run(workload, seconds, workdir, cli, checker):
    tracer = tracing.Tracer()
    traced_ops, sweep_ops, overhead, written = [], set(), [], []

    def run_op(op):
        fresh_outputs(workdir)
        code, start, end, stdout, stderr = run_in_process(cli, op, workdir)
        checker.check(op, code, stdout, stderr, workdir)
        untraced = end - start

        fresh_outputs(workdir)
        op_id = len(traced_ops) + 1
        tracer.begin_op(op_id)
        with tracer.patched():
            code, start, end, stdout, stderr = run_in_process(cli, op, workdir)
        tracer.root_span(op_id, start, end)
        checker.check(op, code, stdout, stderr, workdir)
        traced_ops.append(op_id)
        if op.argv[0] == "sweep":
            sweep_ops.add(op_id)
        overhead.append((end - start) - untraced)
        written.append(workloads.artifact_bytes(workdir))

    elapsed = closed_loop(workload, seconds, run_op)
    metrics = tracing.layer_metrics(tracer, traced_ops, sweep_ops)
    metrics["cli.bytes_written"] = (sum(written) / len(written), "B")
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return tracer, metrics, len(traced_ops), elapsed


def machine():
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for package in ("numpy", "mpmath"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "absent"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
    if caches:
        info["llc"] = f"L{max(caches)} {caches[max(caches)]}"
    return info


def check_verdicts(workload, reference):
    """Record the closed-form verdict counts of the gain-scan configs; a
    verdict that differs from the reference is a failed check."""
    scan = reference["gain-scan"]
    picks = workload.notes["pool_indices"]
    verdicts = workloads.scan_verdicts([scan["gains"][i] for i in picks])
    workload.notes["verdict_counts"] = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    if verdicts != [scan["verdict"][i] for i in picks]:
        return ["closed-form verdicts differ from the reference"]
    return []


def p90(values):
    """90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        env = op_env()
        check_tree(env, ROOT)
        workdir.mkdir(parents=True)
        reference = workloads.load_reference()
        workload = workloads.build(args.workload, args.seed, reference)
        for rel, text in workload.inputs.items():
            (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
            (workdir / rel).write_text(text, encoding="utf-8")
        checker = Checker(workload)
        cli = import_tree() if args.trace or args.workload == "gain-scan" else None
        setup_problems = check_verdicts(workload, reference) if args.workload == "gain-scan" else []

        info = machine()
        print(f"machine: {json.dumps(info, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"closed loop, 1 caller; inputs {json.dumps(workload.notes, sort_keys=True)}")

        if args.trace:
            imports = import_costs(env, workdir)
            tracer, metrics, n_traced, elapsed = traced_run(workload, args.seconds, workdir,
                                                            cli, checker)
            metrics["import.numpy_s"] = (imports["numpy"], "s")
            metrics["import.mpmath_s"] = (imports["mpmath"], "s")
            metrics["import.fracdyn_s"] = (imports["fracdyn"], "s")
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.dump(trace_path)
            print(f"{checker.attempted} in-process ops in {elapsed:.1f} s, {n_traced} traced; "
                  f"per-layer values are per traced op; spans in {trace_path.relative_to(ROOT)}")
        else:
            walls, rss, imports, elapsed = timed_run(workload, args.seconds, workdir, env,
                                                     checker)
            metrics = {
                "setup_s": (statistics.median(imports), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
                "ok_ratio": ((checker.attempted - len(checker.failures)) / checker.attempted, "1"),
            }
            print(f"{len(walls)} op processes in {elapsed:.1f} s; medians over all ops; "
                  f"setup_s is the median of {len(imports)} imports spread over the run")
            quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
            print(f"  op wall over {len(walls)} ops: min {min(walls):.4f} s, quartiles "
                  + " ".join(f"{q:.4f}" for q in quartiles) + f" s, max {max(walls):.4f} s")
            tail = p90(walls)
            if tail is not None:
                print(f"  wall_s.p90 {tail:.6f} s over {len(walls)} ops")
    except TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for key, problems in checker.failures[:5]:
        print(f"failed op {key}: {'; '.join(problems)}")
    for problem in setup_problems:
        print(f"failed check: {problem}")
    failed = len(checker.failures)
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
