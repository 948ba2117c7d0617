"""Span recording around fracdyn's public functions, from outside the program.

`Tracer.patched()` rebinds public functions in every loaded `fracdyn`
module to recorders: each name bound to the original function object is
replaced, so `fracdyn.cli.integrate`, `fracdyn.solver.integrate`,
`fracdyn.registry.mittag_leffler` and the like all record, and everything
is restored on exit. The program's files are never changed.

A span records its name, start, end, parent span, op id and a note (steps,
bytes or |z|). Parents are tracked per thread; spans started in a worker
thread of `sweep` hang off the op's root span. Field evaluations are far
too frequent to keep one record each, so they are leaves: their calls and
seconds are summed per (op, parent span) instead. Everything stays in
memory until `dump` writes it out after the run.
"""

import dataclasses
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# (module, public function) pairs recorded as spans. A name missing from the
# tree under test is skipped, and its metrics then read 0.
SPAN_TARGETS = (
    ("fracdyn.cli", "_run_experiment"),   # one config of simulate or sweep
    ("fracdyn.expconfig", "load_config"),
    ("fracdyn.registry", "build_system"),
    ("fracdyn.registry", "oracle_for"),
    ("fracdyn.solver", "integrate"),
    ("fracdyn.solver", "convergence_order"),
    ("fracdyn.svgplot", "line_chart"),
    ("fracdyn.numkit", "mittag_leffler"),
    ("fracdyn.numkit", "eigenvalues"),
    ("fracdyn.numkit", "poly_roots"),
)
STABILITY_MODULE = "fracdyn.stability"  # every public function is a span
LEAF_TARGETS = (("fracdyn.maxbloch", "field"),)
ROOT = "cli.main"

# Mittag-Leffler calls are bucketed by |z|: the float branch covers small
# arguments and the mpmath branch takes over as |z| grows.
ML_BUCKETS = ((1.0, "absz_lt1"), (4.0, "absz_1to4"), (float("inf"), "absz_ge4"))


def ml_bucket(z):
    return next(name for bound, name in ML_BUCKETS if abs(z) < bound)


def _short(module, attr):
    return f"{module.rpartition('.')[2]}.{attr}"


def _note(name, args, kwargs, result):
    if name == "svgplot.line_chart":
        return len(result.encode("utf-8"))
    if name == "numkit.mittag_leffler":
        return ml_bucket(float(args[1] if len(args) > 1 else kwargs["z"]))
    if name == "solver.integrate":
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        return getattr(cfg, "n_steps", 0)
    return None


class Tracer:
    def __init__(self):
        self.spans = []     # (id, name, start, end, parent, op, note)
        self.leaves = {}    # (op, parent, name) -> [calls, seconds]
        self.op = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        stack = self._stack()
        return stack[-1] if stack else self.root

    def span(self, name, fn):
        tracer = self

        def recorder(*args, **kwargs):
            if name == "solver.integrate" and args and dataclasses.is_dataclass(args[0]):
                # count the field calls the solver makes through SystemDef.field
                sysdef = args[0]
                args = (dataclasses.replace(sysdef, field=tracer.leaf("systems.field", sysdef.field)),
                        ) + args[1:]
            sid = next(tracer._ids)
            parent = tracer._parent()
            stack = tracer._stack()
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = _note(name, args, kwargs, result) if result is not None else None
                tracer.spans.append((sid, name, start, end, parent, tracer.op, note))

        return recorder

    def leaf(self, name, fn):
        tracer = self

        def recorder(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                # a parent span lives in one thread, so only that thread
                # updates the counters keyed by it
                acc = tracer.leaves.setdefault((tracer.op, tracer._parent(), name), [0, 0.0])
                acc[0] += 1
                acc[1] += elapsed

        return recorder

    def root_span(self, op, start, end):
        self.spans.append((self.root, ROOT, start, end, None, op, None))

    def begin_op(self, op):
        self.op = op
        self.root = next(self._ids)

    @contextmanager
    def patched(self):
        """Rebind the traced public functions in every loaded fracdyn module."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "fracdyn" or name.startswith("fracdyn."))}
        wrappers = {}
        targets = [(m, a, self.span) for m, a in SPAN_TARGETS]
        targets += [(m, a, self.leaf) for m, a in LEAF_TARGETS]
        stability = modules.get(STABILITY_MODULE)
        for attr in getattr(stability, "__all__", ()):
            if inspect.isfunction(getattr(stability, attr, None)):
                targets.append((STABILITY_MODULE, attr, self.span))
        for module, attr, make in targets:
            original = getattr(modules.get(module), attr, None)
            if callable(original):
                wrappers[id(original)] = (original, make(_short(module, attr), original))
        undo = []
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, key, wrappers[id(value)][1])
                    undo.append((mod, key, value))
        try:
            yield
        finally:
            for mod, key, value in undo:
                setattr(mod, key, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, note in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "note": note}) + "\n")
            for (op, parent, name), (calls, seconds) in self.leaves.items():
                handle.write(json.dumps({"leaf": name, "parent": parent, "op": op,
                                         "calls": calls, "seconds": seconds}) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer, ops, sweep_ops):
    """Per-layer metrics of the traced ops.

    Times and counts are totals over the traced ops divided by their number
    (per op); `*_per_step` values and `cli.sweep_overlap` are ratios of
    totals. A layer the workload never reaches reads 0. In a sweep, span
    times are summed over both worker threads and include waits for the
    interpreter lock, so they can add up to more than the op's wall time.
    """
    n_ops = max(len(ops), 1)
    by_id = {s[0]: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        children.setdefault(s[4], []).append(s)
    leaf_seconds = {}
    for (_, parent, _), (_, seconds) in tracer.leaves.items():
        leaf_seconds[parent] = leaf_seconds.get(parent, 0.0) + seconds

    def layer(name):
        return name.partition(".")[0]

    def total(name):
        return sum(s[3] - s[2] for s in tracer.spans if s[1] == name)

    def leaf(name):
        calls_ = sum(v[0] for k, v in tracer.leaves.items() if k[2] == name)
        seconds = sum(v[1] for k, v in tracer.leaves.items() if k[2] == name)
        return calls_, seconds

    def entries(layer_name):
        # spans of a layer called from another layer, so nesting is not double counted
        return [s for s in tracer.spans if layer(s[1]) == layer_name
                and (s[4] not in by_id or layer(by_id[s[4]][1]) != layer_name)]

    # cli self time: the cli spans' time not covered by their child spans
    cli_self = 0.0
    for s in tracer.spans:
        if layer(s[1]) == "cli":
            cover = _union_length([(c[2], c[3]) for c in children.get(s[0], ())])
            cover += leaf_seconds.get(s[0], 0.0)
            cli_self += (s[3] - s[2]) - cover

    steps = sum(s[6] or 0 for s in tracer.spans if s[1] == "solver.integrate")
    field_calls, field_s = leaf("systems.field")
    _, maxbloch_s = leaf("maxbloch.field")
    integrate_s = total("solver.integrate")
    solver_self = integrate_s - field_s

    overlap = 0.0
    if sweep_ops:
        sweep_wall = sum(s[3] - s[2] for s in tracer.spans if s[1] == ROOT and s[5] in sweep_ops)
        per_config = sum(s[3] - s[2] for s in tracer.spans
                         if s[1] == "cli._run_experiment" and s[5] in sweep_ops)
        overlap = per_config / sweep_wall if sweep_wall > 0 else 0.0

    stability = entries("stability")
    line_charts = [s for s in tracer.spans if s[1] == "svgplot.line_chart"]
    ml = [s for s in tracer.spans if s[1] == "numkit.mittag_leffler"]

    metrics = {
        "cli.main_s": (total(ROOT) / n_ops, "s"),
        "cli.self_s": (cli_self / n_ops, "s"),
        "cli.sweep_overlap": (overlap, "ratio"),
        "solver.integrate_s": (integrate_s / n_ops, "s"),
        "solver.self_s": (solver_self / n_ops, "s"),
        "solver.self_us_per_step": (solver_self / steps * 1e6 if steps else 0.0, "us/step"),
        "systems.field_s": (field_s / n_ops, "s"),
        "systems.field_calls": (field_calls / n_ops, "count"),
        "systems.field_calls_per_step": (field_calls / steps if steps else 0.0, "calls/step"),
        "maxbloch.field_s": (maxbloch_s / n_ops, "s"),
        "svgplot.line_chart_s": (total("svgplot.line_chart") / n_ops, "s"),
        "svgplot.calls": (len(line_charts) / n_ops, "count"),
        "svgplot.bytes": (sum(s[6] or 0 for s in line_charts) / n_ops, "B"),
        "numkit.mittag_leffler_s": (total("numkit.mittag_leffler") / n_ops, "s"),
        "numkit.mittag_leffler.calls": (len(ml) / n_ops, "count"),
        "numkit.eigenvalues_s": (total("numkit.eigenvalues") / n_ops, "s"),
        "numkit.poly_roots_s": (total("numkit.poly_roots") / n_ops, "s"),
        "stability.classify_s": (sum(s[3] - s[2] for s in stability) / n_ops, "s"),
        "stability.calls": (len(stability) / n_ops, "count"),
        "registry.build_system_s": (total("registry.build_system") / n_ops, "s"),
        "expconfig.load_config_s": (total("expconfig.load_config") / n_ops, "s"),
    }
    for _, bucket in ML_BUCKETS:
        spans = [s for s in ml if s[6] == bucket]
        metrics[f"numkit.mittag_leffler.{bucket}_s"] = (
            sum(s[3] - s[2] for s in spans) / n_ops, "s")
        metrics[f"numkit.mittag_leffler.{bucket}.calls"] = (len(spans) / n_ops, "count")
    return metrics
