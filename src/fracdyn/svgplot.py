"""Single-series SVG line charts with no plotting dependency.

The output is a pure function of the data: no timestamps, random ids or
locale-dependent formatting, so identical inputs give identical bytes.
A polyline template shared between charts keeps it so: its text depends
only on the series length.
"""

import math
import sys

import numpy as np

__all__ = ["line_chart", "polyline_template"]

# Points per chunk of a polyline template: bounds each template string and
# the tuple of values formatted into it.
_TEMPLATE_POINTS = 4096

# Canvas size and margin in pixels, ticks per axis and the label of the
# index axis.
_WIDTH, _HEIGHT = 720, 480
_MARGIN = 64.0
_TICKS = 5
_X_LABEL = "n"


def _ticks(lo, hi):
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def polyline_template(size):
    """Polyline points of a `size`-value series with their x-coordinates
    formatted and a %.2f in place of each y, in chunks of _TEMPLATE_POINTS.

    The x-coordinates depend only on `size`, so every chart of that many
    values can share one template.
    """
    last = max(size - 1, 1)
    chunks = []
    for start in range(0, size, _TEMPLATE_POINTS):
        # the arithmetic of line_chart's px, one array operation per chunk
        xs = _MARGIN + (_WIDTH - 2 * _MARGIN) * (
            np.arange(start, min(start + _TEMPLATE_POINTS, size)) / last)
        chunks.append(" ".join(["%.2f,%%.2f"] * xs.size) % tuple(xs.tolist()))
    return chunks


def line_chart(values, y_label, template=None):
    """SVG text for a 720 by 480 line chart of values against their index n.

    `template` is `polyline_template(len(values))`, built here if not given.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("cannot plot an empty or multi-dimensional series")
    width, height = _WIDTH, _HEIGHT
    margin = _MARGIN
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    lo, hi = float(values.min()), float(values.max())
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

    if template is None:
        template = polyline_template(values.size)
    # the same arithmetic as py, one array operation for all points
    ys = height - margin - plot_h * ((values - lo) / (hi - lo))
    out.append('<polyline points="' + " ".join(
        chunk % tuple(ys[i:i + _TEMPLATE_POINTS].tolist())
        for i, chunk in zip(range(0, ys.size, _TEMPLATE_POINTS), template)
    ) + '" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>')
    out.append("</svg>\n")
    return "\n".join(out)
