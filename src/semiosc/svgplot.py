"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output bytes must depend only on the data and
the package version (no timestamps, no generated ids), so repeated runs of
the same scenario diff clean.
"""

from __future__ import annotations

import math

from . import __version__
from .core import UsageError

__all__ = ["render_line_plot"]

WIDTH = 880
HEIGHT = 520
MARGIN_L = 78
MARGIN_R = 24
MARGIN_T = 46
MARGIN_B = 58

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _span(values) -> tuple[float, float]:
    if not all(map(math.isfinite, values)):
        raise UsageError("cannot plot non-finite data")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        pad = max(abs(hi) * 1e-3, 1e-12)
        return lo - pad, hi + pad
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


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
    version."""
    if not curves:
        raise UsageError("nothing to plot")
    x_lo, x_hi = _span([x for _, xs, _ in curves for x in xs])
    y_lo, y_hi = _span([y for _, _, ys in curves for y in ys])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<!-- semiosc {__version__} -->')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    out.append(f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    # ticks: five per axis, evenly spaced in data coordinates
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4.0
        xp = px(xv)
        out.append(f'<line x1="{_fmt(xp)}" y1="{MARGIN_T + plot_h}" '
                   f'x2="{_fmt(xp)}" y2="{MARGIN_T + plot_h + 5}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(xp)}" y="{MARGIN_T + plot_h + 20}" '
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

    out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{_escape(xlabel)}</text>')
    out.append(f'<text x="20" y="{MARGIN_T + plot_h / 2:.1f}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {MARGIN_T + plot_h / 2:.1f})">'
               f'{_escape(ylabel)}</text>')

    for i, (_, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
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
