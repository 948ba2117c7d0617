"""The files of one run: trajectory.csv, fig1.svg..figd.svg and report.kv.

trajectory.csv is a `step,t,x1..xd` header and one row per grid point,
every float at %.17g, so it reads back bit for bit. Its rows are filled
into templates whose step and t columns are already text, one % call per
chunk of rows, as the plots' polylines are filled into templates whose
x-coordinates are already text. Both depend only on the time grid and d,
so the trajectories on one grid can share them through a TemplateCache.
"""

import itertools
from pathlib import Path

import numpy as np

from .stability import _fmt, _kv_join
from .svgplot import line_chart, polyline_template

__all__ = ["TemplateCache", "distance", "row_templates", "write_artifacts", "write_csv"]

# Rows per template: bounds each template and the tuple of values formatted
# into it. Longer chunks were no faster.
_ROWS = 256


def row_templates(times, dim):
    """Yield the text of the rows at `times`, _ROWS rows at a time, with
    their step and t columns formatted and a %.17g for each of `dim` values."""
    row = "%d,%.17g" + ",%%.17g" * dim + "\n"
    for start in range(0, len(times), _ROWS):
        chunk = times[start:start + _ROWS].tolist()
        yield (row * len(chunk)) % tuple(
            itertools.chain.from_iterable(zip(itertools.count(start), chunk)))


def write_csv(path, traj, templates=None):
    """Write trajectory `traj` to `path` as CSV.

    `templates` is `row_templates(traj.times, d)`, made chunk by chunk here
    if not given, so no text or Python list of the whole table is built.
    """
    dim = traj.states.shape[1]
    with open(path, "w", encoding="utf-8") as out:
        out.write("step,t," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n")
        for start, template in zip(range(0, len(traj.states), _ROWS),
                                   templates or row_templates(traj.times, dim)):
            out.write(template % tuple(traj.states[start:start + _ROWS].ravel().tolist()))


class TemplateCache:
    """The CSV and polyline templates of the last time grid and dimension
    written, kept for the next trajectories that share both."""

    def __init__(self):
        self.times = self.dim = self.csv = self.polyline = None

    def of(self, times, dim):
        """(CSV templates, polyline template) of grid `times` and dimension `dim`."""
        if self.times is not times or self.dim != dim:
            self.times, self.dim = times, dim
            self.csv = list(row_templates(times, dim))
            self.polyline = polyline_template(len(times))
        return self.csv, self.polyline


def distance(x, target):
    """Euclidean distance from state `x` to `target`.

    np.linalg.norm squares the components, so it overflows to inf for a
    distance above about 1.3e154. Only then is the norm taken again, of the
    difference divided by its largest component, so every smaller distance
    keeps the bits of the plain norm.
    """
    with np.errstate(over="ignore"):
        diff = x - target
        dist = np.linalg.norm(diff)
        if np.isinf(dist) and np.isfinite(diff).all():
            scale = np.max(np.abs(diff))
            dist = scale * np.linalg.norm(diff / scale)
    return dist


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
        pairs.append(("initial_distance", _fmt(distance(traj.states[0], target))))
        pairs.append(("final_distance", _fmt(distance(final, target))))
    path.write_text(_kv_join(pairs) + "\n", encoding="utf-8")


def write_artifacts(cfg, traj, target, cache=None):
    """Write trajectory.csv, fig1.svg..figd.svg and report.kv of one run of
    config `cfg`, with target point `target` or None, to cfg.output_dir.

    With a TemplateCache, trajectories written one after another on one
    grid share their templates; without, this run keeps none of its own.
    Touches no standard stream: sweep writers run it in forked processes.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    times, dim = traj.times, traj.states.shape[1]
    if cache is None:
        csv, polyline = None, polyline_template(len(times))
    else:
        csv, polyline = cache.of(times, dim)
    write_csv(outdir / "trajectory.csv", traj, csv)
    for i in range(dim):
        chart = line_chart(traj.states[:, i], y_label=f"x^{i + 1}(n)", template=polyline)
        (outdir / f"fig{i + 1}.svg").write_text(chart, encoding="utf-8")
    _write_report_kv(outdir / "report.kv", cfg, traj, target)
