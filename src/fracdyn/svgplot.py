"""Single-series SVG line charts with no plotting dependency.

The output is a pure function of the data: no timestamps, random ids or
locale-dependent formatting, so identical inputs give identical bytes.
The x-side of a chart depends only on the series' length, so the last
length charted keeps it for the next chart of that length: the polyline
template whose x-coordinates are already text, or the pixel columns of a
long series.

The plot area is 592 px wide, and a point lies in the pixel column of its
x as printed: column c, one of 593, holds the points whose x prints from
64 + c up to below 65 + c. A finite series of more than 2372 points, four
per column, is drawn from its M4 envelope: the first, last, lowest and
highest point of each column (Jugel, Jerzak, Hackenbroich & Markl, "M4: A
Visualization-Oriented Time Series Data Aggregation", PVLDB 7(10), 2014).
A line through those points rasterizes as the line through every point,
so at the SVG's native size the chart is exact, in at most four points
per column whatever the series' length. Shorter series, and series
holding NaN or inf, keep every point.
"""

import bisect
import functools
import math
import sys

import numpy as np

__all__ = ["line_chart"]

# Canvas size and margin in pixels, ticks per axis and the label of the
# index axis.
_WIDTH, _HEIGHT = 720, 480
_MARGIN = 64.0
_TICKS = 5
_X_LABEL = "n"

# Width of the plot area in pixels; its pixel columns are 0.._PLOT_W.
_PLOT_W = int(_WIDTH - 2 * _MARGIN)
# Longest series drawn point by point: four points per pixel column.
_MAX_POINTS = 4 * (_PLOT_W + 1)


def _ticks(lo, hi):
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def _template(indices, last):
    """Polyline points at `indices` of a series whose last index is `last`,
    with their x-coordinates formatted and a %.2f in place of each y."""
    # the arithmetic of line_chart's px, one array operation for all points
    xs = _MARGIN + _PLOT_W * (indices / last)
    return " ".join(["%.2f,%%.2f"] * xs.size) % tuple(xs.tolist())


@functools.lru_cache(maxsize=1)
def _x_side(size):
    """The x-side of a chart of `size` values, kept for the next chart of
    that length: the polyline template of every point, or above _MAX_POINTS
    the first index of each pixel column, where a finite series is drawn
    from its envelope (read-only, since every such chart shares it)."""
    last = max(size - 1, 1)
    if size <= _MAX_POINTS:
        return _template(np.arange(size), last)
    # Column c starts at the first index whose x, as %.2f prints it, reaches
    # _MARGIN + c. Rounding moves x by at most 0.005 px, so that index lies
    # between the first ones whose exact x reaches _MARGIN + c - 0.01 and + c.
    columns = np.arange(_PLOT_W + 1)
    lo = np.maximum(-((1 - 100 * columns) * last // (100 * _PLOT_W)), 0)
    hi = -(-columns * last // _PLOT_W)
    starts = np.array([bisect.bisect_left(
        range(size), _MARGIN + column, lo[column], hi[column],
        key=lambda i: float("%.2f" % (_MARGIN + _PLOT_W * (i / last))))
        for column in columns.tolist()])
    starts.flags.writeable = False
    return starts


def _envelope(values, starts):
    """Indices, ascending and distinct, of the first, last, lowest and highest
    of the finite `values` in each pixel column, the columns starting at
    indices `starts`, the lowest index winning ties; every column must hold
    a value."""
    counts = np.diff(starts, append=values.size)
    picks = [starts, starts + counts - 1]
    for reduce in (np.minimum, np.maximum):
        extremes = np.repeat(reduce.reduceat(values, starts), counts)
        hits = np.flatnonzero(values == extremes)
        picks.append(hits[np.searchsorted(hits, starts)])
    kept = np.sort(np.concatenate(picks))
    return kept[np.flatnonzero(np.diff(kept, prepend=-1))]


def line_chart(values, y_label):
    """SVG text for a 720 by 480 line chart of values against their index n.

    The axes and ticks span every value; a finite series of more than
    _MAX_POINTS draws only the points of its envelope.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("cannot plot an empty or multi-dimensional series")
    width, height = _WIDTH, _HEIGHT
    margin = _MARGIN
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    lo, hi = float(values.min()), float(values.max())
    enveloped = values.size > _MAX_POINTS and math.isfinite(lo) and math.isfinite(hi)
    if hi - lo == 0.0:
        pad = 0.5 * max(1.0, abs(hi))
    else:
        pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    scale = 1.0
    if math.isinf(hi - lo):
        # the padded range overflows: chart the whole float range, at a
        # quarter of the scale so that its span and ticks stay finite
        scale = 0.25
        values = values * scale
        hi = sys.float_info.max * scale
        lo = -hi
    last = max(values.size - 1, 1)

    def px(i):
        return margin + plot_w * (i / last)

    def py(v):
        return height - margin - plot_h * ((v - lo) / (hi - lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    # axes
    x0, y0 = margin, height - margin
    out.append(
        f'<path d="M{x0:.2f} {margin:.2f}L{x0:.2f} {y0:.2f}L{width - margin:.2f} {y0:.2f}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for v in _ticks(lo, hi):
        y = py(v)
        out.append(
            f'<line x1="{x0 - 4:.2f}" y1="{y:.2f}" x2="{x0:.2f}" y2="{y:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x0 - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{v / scale:.6g}</text>'
        )
    for i in _ticks(0, values.size - 1):
        idx = int(round(i))
        x = px(idx)
        out.append(
            f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + 4:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{y0 + 18:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{idx}</text>'
        )

    out.append(
        f'<text x="{width / 2:.2f}" y="{height - 16:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{_X_LABEL}</text>'
    )
    out.append(
        f'<text x="{x0:.2f}" y="{margin - 12:.2f}" text-anchor="start" '
        f'font-family="monospace" font-size="13">{y_label}</text>'
    )

    if enveloped:
        kept = _envelope(values, _x_side(values.size))
        template, values = _template(kept, last), values[kept]
    elif values.size <= _MAX_POINTS:
        template = _x_side(values.size)
    else:  # a long series holding NaN or inf: every point, and no O(N) memo
        template = _template(np.arange(values.size), last)
    # the same arithmetic as py, one array operation for all points
    ys = height - margin - plot_h * ((values - lo) / (hi - lo))
    out.append('<polyline points="' + template % tuple(ys.tolist())
               + '" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>')
    out.append("</svg>\n")
    return "\n".join(out)
