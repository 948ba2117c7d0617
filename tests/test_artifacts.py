"""Artifact text from cached templates: trajectory.csv and the polylines of
the SVG plots are byte for byte what per-cell formatting gives, whichever
trajectories share a template, and writing keeps no O(N) memory. Also the
rule that picks forked writers and the pipe a CsvWriter is sent through."""

import gc
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import artifacts, svgplot
from fracdyn.artifacts import TemplateCache, distance, row_templates, write_artifacts, write_csv
from fracdyn.expconfig import ExperimentConfig
from fracdyn.solver import Trajectory
from fracdyn.svgplot import line_chart, polyline_template

from conftest import bits

CSV_ROWS = artifacts._ROWS
SVG_POINTS = svgplot._TEMPLATE_POINTS
EDGE = [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan"),
        1e20, -1e20, 2.0 ** 53, 1 / 3, -1 / 3]


def csv_oracle(times, states):
    """The table as formatted cell by cell, one format string per row."""
    row = "%d" + ",%.17g" * (states.shape[1] + 1) + "\n"
    head = "step,t," + ",".join(f"x{i + 1}" for i in range(states.shape[1])) + "\n"
    return head + "".join(row % (i, t, *x) for i, (t, x) in
                          enumerate(zip(times.tolist(), states.tolist())))


def polyline_oracle(values):
    """The polyline points of line_chart(values), formatted point by point
    through the px and py arithmetic of line_chart."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    pad = 0.5 * max(1.0, abs(hi)) if hi - lo == 0.0 else 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    last = max(values.size - 1, 1)
    margin, plot_w, plot_h, height = 64.0, 720 - 128.0, 480 - 128.0, 480
    return " ".join("%.2f,%.2f" % (margin + plot_w * (i / last),
                                   height - margin - plot_h * ((v - lo) / (hi - lo)))
                    for i, v in enumerate(values.tolist()))


def polyline_of(svg):
    return svg.split('<polyline points="')[1].split('"')[0]


@st.composite
def tables(draw):
    """(times, states): random states with edge values at drawn cells."""
    rows = draw(st.sampled_from([1, 2, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1, 2 * CSV_ROWS + 3]))
    dim = draw(st.integers(1, 6))
    h = draw(st.sampled_from([0.01, 0.1, 1 / 3, 1e-7, 2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-30, 30, (rows, dim))
    edges = draw(st.lists(st.tuples(st.integers(0, rows * dim - 1),
                                    st.sampled_from(EDGE) | st.floats()), max_size=24))
    for cell, value in edges:
        states.flat[cell] = value
    return np.arange(rows, dtype=float) * h, states


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tables())
def test_csv_matches_per_cell_format(tmp_path_factory, table):
    times, states = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    want = csv_oracle(times, states)
    write_csv(path, Trajectory(times, states))
    assert path.read_text(encoding="utf-8") == want
    write_csv(path, Trajectory(times, states), list(row_templates(times, states.shape[1])))
    assert path.read_text(encoding="utf-8") == want


def write_members(tmp_path, members):
    """Write `members`, (name, times, states) triples, one after another
    through one TemplateCache, as a sweep process does; return each
    member's artifact texts."""
    cache = TemplateCache()
    for name, times, states in members:
        cfg = ExperimentConfig(system="linear-decay", alpha=0.5, h=0.1, steps=len(times) - 1,
                               x0=(1.0,) * states.shape[1], output_dir=str(tmp_path / name))
        write_artifacts(cfg, Trajectory(times, states), None, cache)
    return {name: {path.name: path.read_text(encoding="utf-8")
                   for path in (tmp_path / name).iterdir()} for name, _, _ in members}


def assert_artifacts_exact(texts, times, states):
    assert texts["trajectory.csv"] == csv_oracle(times, states)
    for i in range(states.shape[1]):
        svg = texts[f"fig{i + 1}.svg"]
        assert polyline_of(svg) == polyline_oracle(states[:, i])
        assert svg == line_chart(states[:, i], y_label=f"x^{i + 1}(n)")


@pytest.mark.parametrize("rows", [1, 2, CSV_ROWS + 1, 2 * CSV_ROWS + 3])
def test_back_to_back_writes_miss_a_stale_template(tmp_path, rows):
    rng = np.random.default_rng(rows)
    grid = np.arange(rows, dtype=float)
    members = [
        ("a", grid * 0.01, rng.standard_normal((rows, 3))),
        # same length, another step size
        ("b", grid * 0.02, rng.standard_normal((rows, 3))),
        ("c", grid * 0.02, rng.standard_normal((rows, 3))),
    ]
    # the same times object with another dimension
    members.append(("d", members[2][1], rng.standard_normal((rows, 2))))
    texts = write_members(tmp_path, members)
    for name, times, states in members:
        assert_artifacts_exact(texts[name], times, states)


@pytest.mark.parametrize("size", [1, 2, SVG_POINTS - 1, SVG_POINTS, SVG_POINTS + 1])
def test_polyline_matches_per_point_format(size):
    rng = np.random.default_rng(size)
    first = np.cumsum(rng.standard_normal(size))
    second = rng.uniform(-1e20, 1e20, size)
    flat = np.full(size, 2.5)
    template = polyline_template(size)
    for values in (first, second, flat):
        want = polyline_oracle(values)
        assert polyline_of(line_chart(values, "y")) == want
        assert polyline_of(line_chart(values, "y", template=template)) == want


# finite values at both ends of the float range, and any other finite value
FINITE = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e154, -1e154, 1.7e308, -1.7e308,
                           1.7976931348623157e308, -1.7976931348623157e308])
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(FINITE, min_size=1, max_size=6)
       | st.tuples(FINITE, st.integers(1, 3)).map(lambda c: [c[0]] * c[1]))
def test_chart_of_a_finite_series_is_finite(values):
    svg = line_chart(values, "y").lower()
    assert "nan" not in svg and "inf" not in svg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(FINITE, min_size=5, max_size=5), st.lists(FINITE, min_size=5, max_size=5))
def test_distance_is_the_plain_norm_until_that_overflows(x, target):
    x, target = np.array(x), np.array(target)
    with np.errstate(over="ignore"):
        diff = x - target
        plain = np.linalg.norm(diff)
    got = distance(x, target)
    if np.isfinite(plain):
        assert bits([got]) == bits([plain])
    else:
        assert got == pytest.approx(math.hypot(*diff.tolist()), rel=1e-15)


def test_writers_peak_below_the_row_by_row_writers(tmp_path):
    # N=100000, d=5: the limits are the tracemalloc peaks of the writers that
    # formatted row by row, 3.2 MB for the table and 7.2 MB for one chart
    n = 100_000
    rng = np.random.default_rng(5)
    traj = Trajectory(np.arange(n + 1) * 0.01, rng.standard_normal((n + 1, 5)))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", traj)
        csv_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        line_chart(traj.states[:, 0], "y")
        svg_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csv_peak <= 3.2e6
    assert svg_peak <= 7.2e6


def test_lone_write_keeps_no_template(tmp_path):
    # N=20000, d=5: the row-by-row writers peaked at 1.73 MB writing a run;
    # the CSV templates of the whole run alone would be about 1 MB
    n = 20_000
    rng = np.random.default_rng(6)
    traj = Trajectory(np.arange(n + 1) * 0.01, rng.standard_normal((n + 1, 5)))
    cfg = ExperimentConfig(system="linear-decay", alpha=0.5, h=0.01, steps=n,
                           x0=(1.0,) * 5, output_dir=str(tmp_path / "lone"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_artifacts(cfg, traj, None)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.73e6
    assert kept - before < 8 * n


@pytest.mark.parametrize("runs, steps, dim, cpus, writers", [
    # writing a batch of `runs` 5-D trajectories forks one writer per CPU,
    # but no more than the runs, or none on one CPU or below 0.1 s
    (16, 2000, 5, 2, 2), (16, 2000, 5, 1, 0), (3, 20000, 5, 16, 3), (1, 20000, 5, 2, 1),
    (0, 0, 5, 2, 0), (16, 30, 5, 2, 0), (1000000, 30, 5, 2, 2), (5, 20000, 5, 64, 5),
    # sweeps: large ones fork, small ones write inline
    (64, 2000, 5, 2, 2), (48, 300, 5, 2, 2), (2, 30, 5, 2, 0), (4, 2000, 5, 2, 0),
    (12, 1000, 5, 2, 0),
    # a lone simulate streams its CSV from N=19599 on the 5-D model
    (1, 500, 5, 2, 0), (1, 19598, 5, 2, 0), (1, 19599, 5, 2, 1), (1, 19599, 5, 1, 0),
    (1, 20000, 5, 1, 0), (1, 20000, 1, 2, 0),
])
def test_writer_count_is_clamped(monkeypatch, runs, steps, dim, cpus, writers):
    monkeypatch.setattr(artifacts, "_cpu_count", lambda: cpus)
    assert artifacts.writer_count([(steps + 1, dim)] * runs) == writers


def test_writer_count_is_zero_without_fork(monkeypatch):
    monkeypatch.setattr(artifacts, "_cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert artifacts.writer_count([(2001, 5)] * 64) == 0


def test_reap_waits_for_every_fork_and_reports_a_failed_one():
    pids = [artifacts.fork(lambda: None), artifacts.fork(lambda: 1 / 0),
            artifacts.fork(lambda: None)]
    assert gc.get_freeze_count() > 0  # collections skip what the forks share
    assert not artifacts.reap(pids) and pids == []
    assert gc.get_freeze_count() == 0
    pids = [artifacts.fork(lambda: None)]
    assert artifacts.reap(pids) and pids == []
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)
