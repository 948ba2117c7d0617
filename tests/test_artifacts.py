"""Artifact text from memoised templates: trajectory.csv and the polylines
of the SVG plots are byte for byte what per-cell formatting gives, whichever
trajectories share a template, runs on one grid format each template once,
and writing keeps no O(N) memory. A long plot keeps each printed pixel
column's first, last, lowest and highest point. Also the rule that picks
forked writers and the pipe a CsvWriter is sent through."""

import gc
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import artifacts, cli, svgplot
from fracdyn.artifacts import distance, write_artifacts, write_csv
from fracdyn.expconfig import ExperimentConfig
from fracdyn.solver import Trajectory
from fracdyn.svgplot import line_chart

from conftest import bits

CSV_ROWS = artifacts._ROWS
SVG_POINTS = svgplot._MAX_POINTS
EDGE = [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan"),
        1e20, -1e20, 2.0 ** 53, 1 / 3, -1 / 3]


def csv_oracle(times, states):
    """The table as formatted cell by cell, one format string per row."""
    row = "%d" + ",%.17g" * (states.shape[1] + 1) + "\n"
    head = "step,t," + ",".join(f"x{i + 1}" for i in range(states.shape[1])) + "\n"
    return head + "".join(row % (i, t, *x) for i, (t, x) in
                          enumerate(zip(times.tolist(), states.tolist())))


def plotted(values):
    """(values, lo, hi) as line_chart plots them: the values at the chart's
    scale and the padded range of its y-axis."""
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    pad = 0.5 * max(1.0, abs(hi)) if hi - lo == 0.0 else 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    if math.isinf(hi - lo):
        hi = sys.float_info.max * 0.25
        return values * 0.25, -hi, hi
    return values, lo, hi


def printed_x(i, size):
    """The x-coordinate of point i of a `size`-value chart as %.2f prints it,
    through the px arithmetic of line_chart."""
    return "%.2f" % (64.0 + (720 - 128.0) * (i / max(size - 1, 1)))


def printed_column(x):
    """The pixel column of printed x-coordinate `x`, 0 to 592."""
    return math.floor(float(x)) - 64


def polyline_oracle(values, kept=None):
    """The polyline points of line_chart(values) at indices `kept`, every
    index if None, formatted point by point through the px and py
    arithmetic of line_chart."""
    values, lo, hi = plotted(values)
    plot_h, height = 480 - 128.0, 480
    ys = values.tolist()
    return " ".join("%s,%.2f" % (printed_x(i, len(ys)),
                                 height - 64.0 - plot_h * ((ys[i] - lo) / (hi - lo)))
                    for i in (range(len(ys)) if kept is None else kept))


def envelope_oracle(values):
    """The indices line_chart(values) draws, pixel column by pixel column:
    every index of a series of at most SVG_POINTS or one holding NaN or
    inf, else each printed column's first, last, lowest and highest, ties
    going to the lowest index."""
    values = plotted(values)[0].tolist()
    if len(values) <= SVG_POINTS or not all(map(math.isfinite, values)):
        return list(range(len(values)))
    columns = {}
    for i in range(len(values)):
        columns.setdefault(printed_column(printed_x(i, len(values))), []).append(i)
    assert sorted(columns) == list(range(593))
    kept = set()
    for column in columns.values():
        ys = [values[i] for i in column]
        kept |= {column[0], column[-1], column[ys.index(min(ys))], column[ys.index(max(ys))]}
    return sorted(kept)


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
    for _ in range(2):  # the second write takes its templates from the memo
        write_csv(path, Trajectory(times, states))
        assert path.read_text(encoding="utf-8") == want


def member_config(directory, rows, dim):
    return ExperimentConfig(system="linear-decay", alpha=0.5, h=0.1, steps=rows - 1,
                            x0=(1.0,) * dim, output_dir=str(directory))


def write_members(tmp_path, members):
    """Write `members`, (name, times, states) triples, one after another, as
    a sweep process does; return each member's artifact texts."""
    for name, times, states in members:
        cfg = member_config(tmp_path / name, len(times), states.shape[1])
        write_artifacts(cfg, Trajectory(times, states), None)
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


@pytest.mark.parametrize("size", [1, 2, SVG_POINTS - 1, SVG_POINTS])
def test_polyline_matches_per_point_format(size):
    rng = np.random.default_rng(size)
    first = np.cumsum(rng.standard_normal(size))
    second = rng.uniform(-1e20, 1e20, size)
    flat = np.full(size, 2.5)
    svgplot._x_side.cache_clear()
    for values in (first, second, flat):  # all but the first from the memo
        assert polyline_of(line_chart(values, "y")) == polyline_oracle(values)
    assert svgplot._x_side.cache_info().misses == 1


def series(kind, size, rng):
    """A `size`-value test series of one kind."""
    if kind == "walk":
        return np.cumsum(rng.standard_normal(size))
    if kind == "constant":
        return np.full(size, -2.5)
    if kind == "edges":  # finite edge values, with ties, at random places
        finite = [e for e in EDGE if math.isfinite(e)]
        return rng.choice(finite, size) * rng.integers(0, 2, size)
    if kind == "overflow":  # a padded range that overflows: charted at 1/4 scale
        values = rng.uniform(-1.0, 1.0, size) * 1e308
        values[rng.integers(0, size, 3)] = [1.7976931348623157e308, -1.7e308, 5e-324]
        return values
    raise ValueError(kind)


def test_threshold_is_four_points_per_pixel_column():
    # point i of a series with last index `last` is in column floor(592 i / last)
    assert SVG_POINTS == 4 * (720 - 2 * 64 + 1) == 2372


@pytest.mark.parametrize("kind", ["walk", "constant", "edges", "overflow"])
@pytest.mark.parametrize("size", [SVG_POINTS - 1, SVG_POINTS, SVG_POINTS + 1, 20001])
def test_long_polyline_is_the_pixel_column_envelope(monkeypatch, size, kind):
    values = series(kind, size, np.random.default_rng(size))
    kept = envelope_oracle(values)
    chart = line_chart(values, "y")
    assert polyline_of(chart) == polyline_oracle(values, kept)
    if size <= SVG_POINTS:
        assert kept == list(range(size))
    else:
        assert len(kept) <= 4 * 592 + 1
    # the axes and ticks come from the whole series: drawn point by point,
    # the chart differs in its polyline only
    # the x memo keeps what the threshold made of `size` points: clear it
    # on both sides of the patch
    monkeypatch.setattr(svgplot, "_MAX_POINTS", size)
    svgplot._x_side.cache_clear()
    full = line_chart(values, "y")
    svgplot._x_side.cache_clear()
    assert polyline_of(full) == polyline_oracle(values)
    assert full.replace(polyline_of(full), "") == chart.replace(polyline_of(chart), "")


@pytest.mark.parametrize("size", [SVG_POINTS + 1, 20001])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_long_series_with_nan_or_inf_keeps_every_point(size, bad):
    values = np.cumsum(np.random.default_rng(size).standard_normal(size))
    values[size // 3] = bad
    assert polyline_of(line_chart(values, "y")) == polyline_oracle(values)


@pytest.mark.parametrize("size", [SVG_POINTS + 1, 3000, 20001])
def test_envelope_keeps_each_printed_columns_extremes(size):
    # the columns are those of the printed x: %.2f may print a point within
    # 0.005 px of its exact column's right edge on the next column
    values = np.cumsum(np.random.default_rng(size).standard_normal(size))
    drawn = set(polyline_of(line_chart(values, "y")).split())
    full = polyline_oracle(values).split()
    columns = {}
    for i, point in enumerate(full):
        columns.setdefault(printed_column(point.split(",")[0]), []).append(i)
    assert sorted(columns) == list(range(593))
    for column in columns.values():
        ys = values[column]
        for i in (0, -1, np.argmin(ys), np.argmax(ys)):
            assert full[column[i]] in drawn


def test_no_polyline_template_above_the_threshold(tmp_path, monkeypatch):
    built, template = [], svgplot._template
    monkeypatch.setattr(svgplot, "_template",
                        lambda indices, last: built.append(indices) or template(indices, last))
    rows = SVG_POINTS + 1
    traj = Trajectory(np.arange(rows) * 0.1, np.random.default_rng(7).standard_normal((rows, 2)))
    artifacts.write_plots_and_report(member_config(tmp_path, rows, 2), traj, None)
    # one template per chart, of its envelope's points only
    assert [len(indices) <= 4 * 592 + 1 for indices in built] == [True, True]


@pytest.mark.parametrize("bad", [None, float("nan")])
def test_long_charts_leave_no_template_in_the_memo(bad):
    # a long chart, enveloped or point by point, keeps its pixel columns at
    # most: the template of 20011 points would hold about 240 KB. No other
    # test charts that length, so no memo can hold it already.
    values = np.cumsum(np.random.default_rng(8).standard_normal(20011))
    if bad is not None:
        values[7] = bad
    line_chart(values[:10], "y")  # the memo holds a short series' template
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        line_chart(values, "y")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 16 * 1024


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


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_runs_on_one_grid_format_each_template_once(tmp_path, forked):
    # a sweep writes a batch inline, or a forked writer writes a share of
    # it: k runs on one grid format each row chunk and the x-side once
    k, rows, dim = 3, 2 * CSV_ROWS + 3, 5
    times = np.arange(rows) * 0.01
    rng = np.random.default_rng(9)
    runs = [(cli._Member(i, member_config(tmp_path / f"m{i}", rows, dim), None, None),
             Trajectory(times, rng.standard_normal((rows, dim)))) for i in range(k)]
    counts = tmp_path / "counts.json"

    def write():
        cli._write_share(runs)
        counts.write_text(json.dumps([artifacts._row_template.cache_info().misses,
                                      svgplot._x_side.cache_info().misses]))

    artifacts._row_template.cache_clear()
    svgplot._x_side.cache_clear()
    if forked:
        assert artifacts.reap([artifacts.fork(write)])
    else:
        write()
    assert json.loads(counts.read_text()) == [-(-rows // CSV_ROWS), 1]
    for member, traj in runs:
        texts = {path.name: path.read_text(encoding="utf-8")
                 for path in Path(member.cfg.output_dir).iterdir()}
        assert_artifacts_exact(texts, times, traj.states)


def test_csv_write_peak_does_not_grow_with_n(tmp_path):
    # the row templates are formatted chunk by chunk and a grid longer than
    # the memo keeps none, so the write's peak is that of a few chunks
    peaks = []
    for n in (20_000, 200_000):
        traj = Trajectory(np.arange(n + 1) * 0.01,
                          np.random.default_rng(n).standard_normal((n + 1, 2)))
        artifacts._row_template.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(tmp_path / "t.csv", traj)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


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
