"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output bytes must depend only on the data and
the package version (no timestamps, no generated ids), so repeated runs of
the same scenario diff clean.
"""

import math
from bisect import bisect_left
from itertools import islice
from operator import le

from . import __version__
from .core import UsageError

__all__ = ["render_line_plot"]

WIDTH = 880
HEIGHT = 520
MARGIN_L = 78
MARGIN_R = 24
MARGIN_T = 46
MARGIN_B = 58

PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _extent(values) -> tuple[float, float]:
    if not all(map(math.isfinite, values)):
        raise UsageError("cannot plot non-finite data")
    return min(values), max(values)


def _span(extents) -> tuple[float, float]:
    """Padded (lo, hi) around the (min, max) pairs of every curve."""
    lo = min(e[0] for e in extents)
    hi = max(e[1] for e in extents)
    if hi == lo:
        pad = max(abs(hi) * 1e-3, 1e-12)
    else:
        pad = 0.04 * (hi - lo)
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise UsageError(f"cannot plot data with a non-finite span "
                         f"({lo!r} to {hi!r})")
    return lo - pad, hi + pad


def _m4(xs, ys, x_lo: float, x_hi: float, columns: int) -> list[int]:
    """Indices of the first, lowest, highest and last point of each of
    `columns` equal columns of [x_lo, x_hi], in index order.

    This is M4 (Jugel et al., PVLDB 7(10), 2014): at one pixel per column
    the kept points draw the same line as all of them.  xs is non-decreasing;
    column k holds edge_k <= x < edge_(k+1), the last column is open to the
    right, and a tie takes the first point.
    """
    stops = []
    start = 0
    for k in range(1, columns):
        start = bisect_left(xs, x_lo + k * (x_hi - x_lo) / columns, start)
        stops.append(start)
    stops.append(len(xs))
    keep = []
    start = 0
    for stop in stops:
        if stop > start:
            col = ys[start:stop]
            keep.extend(sorted({start, start + col.index(min(col)),
                                start + col.index(max(col)), stop - 1}))
        start = stop
    return keep


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _tick_label(v: float) -> str:
    if v == 0.0:
        return "0"
    return f"{v:.4g}"


def render_line_plot(curves, *, title: str, xlabel: str, ylabel: str,
                     annotations=()) -> str:
    """Render (label, xs, ys) curves, each a non-empty polyline with as many
    xs as ys, to a standalone SVG document string stamped with the package
    version.

    A curve of more than 4 points per pixel column whose xs are
    non-decreasing is drawn through its M4 points (`_m4`); every other curve
    is drawn through all its points.  Every value is checked and sets the
    frame either way.
    """
    if not curves:
        raise UsageError("nothing to plot")
    # curves may share one xs object (an overlay's t): read each one once
    distinct_xs = {id(xs): xs for _, xs, _ in curves}.values()
    x_lo, x_hi = _span([_extent(xs) for xs in distinct_xs])
    y_lo, y_hi = _span([_extent(ys) for _, _, ys in curves])
    binned = {id(xs) for xs in distinct_xs if len(xs) > 4 * PLOT_W
              and all(map(le, xs, islice(xs, 1, None)))}
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    y_base = MARGIN_T + PLOT_H

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / x_span * PLOT_W

    def py(y: float) -> float:
        return y_base - (y - y_lo) / y_span * PLOT_H

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<!-- semiosc {__version__} -->')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
               f'height="{PLOT_H}" fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    # ticks: five per axis, evenly spaced in data coordinates
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4.0
        xp = px(xv)
        out.append(f'<line x1="{_fmt(xp)}" y1="{MARGIN_T + PLOT_H}" '
                   f'x2="{_fmt(xp)}" y2="{MARGIN_T + PLOT_H + 5}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(xp)}" y="{MARGIN_T + PLOT_H + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(xv)}</text>')
        yv = y_lo + i * (y_hi - y_lo) / 4.0
        yp = py(yv)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(yp)}" '
                   f'x2="{MARGIN_L}" y2="{_fmt(yp)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{_fmt(yp + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(yv)}</text>')

    out.append(f'<text x="{MARGIN_L + PLOT_W / 2:.1f}" y="{HEIGHT - 14}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{_escape(xlabel)}</text>')
    out.append(f'<text x="20" y="{MARGIN_T + PLOT_H / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {MARGIN_T + PLOT_H / 2:.1f})">'
               f'{_escape(ylabel)}</text>')

    for i, (_, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        if id(xs) in binned:
            keep = _m4(xs, ys, x_lo, x_hi, PLOT_W)
            xs, ys = [xs[j] for j in keep], [ys[j] for j in keep]
        # px and py inlined, one format per point
        pts = " ".join(["%.3f,%.3f" % (MARGIN_L + (x - x_lo) / x_span * PLOT_W,
                                       y_base - (y - y_lo) / y_span * PLOT_H)
                        for x, y in zip(xs, ys)])
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.3" '
                   f'points="{pts}"/>')

    # legend, top right inside the frame
    for i, (label, _, _) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        ly = MARGIN_T + 16 + 18 * i
        lx = WIDTH - MARGIN_R - 170
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="12">{_escape(label)}</text>')

    for i, note in enumerate(annotations):
        out.append(f'<text x="{MARGIN_L + 8}" y="{MARGIN_T + 16 + 16 * i}" '
                   f'font-family="sans-serif" font-size="11" fill="#555555">'
                   f'{_escape(note)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
