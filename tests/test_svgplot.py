"""Per-pixel-column binning (M4) of the SVG polylines."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from semiosc.svgplot import PLOT_W, _m4, _span, render_line_plot


def _reference_m4(xs, ys, x_lo, x_hi, columns):
    """Point by point: each point's column is the number of interior edges
    at or left of it; keep each column's first, first lowest, first highest
    and last point."""
    edges = [x_lo + k * (x_hi - x_lo) / columns for k in range(1, columns)]
    members = {}
    for i, x in enumerate(xs):
        column = sum(map(x.__ge__, edges))  # edges with edge <= x
        members.setdefault(column, []).append(i)
    keep = set()
    for idx in members.values():
        col = [ys[i] for i in idx]
        keep.update((idx[0], idx[col.index(min(col))],
                     idx[col.index(max(col))], idx[-1]))
    return sorted(keep), members


@st.composite
def monotone_curves(draw):
    """A frame [x_lo, x_hi] and, around 4 * PLOT_W points, non-decreasing
    xs in it (clustered, so some columns are empty, with some points exactly
    on a column edge and some repeated) and ys with ties."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4 * PLOT_W - 200, 4 * PLOT_W + 400))
    x_lo = draw(st.floats(-1e3, 1e3))
    x_hi = x_lo + draw(st.floats(1e-6, 1e4))
    edges = [x_lo + k * (x_hi - x_lo) / PLOT_W for k in range(PLOT_W)]
    on_edge = draw(st.floats(0.0, 0.5))
    cluster = draw(st.sampled_from((1.0, 3.0)))
    xs = []
    for _ in range(n):
        if xs and rng.random() < 0.2:
            xs.append(xs[-1])
        elif rng.random() < on_edge:
            xs.append(rng.choice(edges))
        else:
            xs.append(x_lo + rng.random() ** cluster * (x_hi - x_lo))
    xs.sort()
    levels = draw(st.sampled_from((3, 50, 10**6)))
    ys = [float(rng.randrange(levels)) for _ in range(n)]
    return xs, ys, x_lo, x_hi


@given(curve=monotone_curves())
@settings(max_examples=10, deadline=None)
def test_m4_keeps_each_columns_first_extremes_and_last(curve):
    xs, ys, x_lo, x_hi = curve
    keep = _m4(xs, ys, x_lo, x_hi, PLOT_W)
    expected, members = _reference_m4(xs, ys, x_lo, x_hi, PLOT_W)
    assert keep == expected
    assert keep[0] == 0 and keep[-1] == len(xs) - 1
    kept = set(keep)
    for idx in members.values():
        in_col = kept.intersection(idx)
        assert len(in_col) <= 4
        col = [ys[i] for i in idx]
        assert min(col) in {ys[i] for i in in_col}
        assert max(col) in {ys[i] for i in in_col}


def _polyline_sizes(svg):
    return [len(pts.split())
            for pts in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)]


def test_long_monotone_curve_draws_its_m4_points_in_the_same_frame():
    n = 25_001
    xs = [0.004 * i for i in range(n)]
    ys = [(i * i % 997) / 997.0 for i in range(n)]
    svg = render_line_plot([("a", xs, ys)], title="t", xlabel="x", ylabel="y")
    x_lo, x_hi = _span([(xs[0], xs[-1])])
    keep = _m4(xs, ys, x_lo, x_hi, PLOT_W)
    assert _polyline_sizes(svg) == [len(keep)]
    assert len(keep) <= 4 * PLOT_W
    # the kept points hold the first, last, lowest and highest point, so
    # drawn on their own they set the same frame, ticks and labels
    kept = render_line_plot([("a", [xs[i] for i in keep],
                              [ys[i] for i in keep])],
                            title="t", xlabel="x", ylabel="y")
    assert kept == svg


def test_curves_that_are_not_binned_keep_every_point():
    n = 4 * PLOT_W
    series = ([0.01 * i for i in range(n)], [float(i % 7) for i in range(n)])
    portrait = ([((i * 7919) % 5003) / 5003.0 for i in range(5000)],
                [(i % 101) / 50.0 for i in range(5000)])
    for xs, ys in (series, portrait):
        svg = render_line_plot([("a", xs, ys)], title="t", xlabel="x",
                               ylabel="y")
        assert _polyline_sizes(svg) == [len(xs)]
