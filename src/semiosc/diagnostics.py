"""Trajectory-level numerical diagnostics.

Conservation drift, a Benettin largest-Lyapunov estimate, observed
convergence order, local-maximum counting for the two occupation series, and
the coupling-power fit of their discrepancy.  Everything is deterministic:
identical configs produce bit-identical reports on every supported Python
(float sums go through _sum, never the builtin sum, which Python 3.12 made
compensated).
"""

import math
from collections import namedtuple
from functools import partial
from itertools import repeat
from operator import sub

from .core import (
    DiagnosticError,
    GaussianMoments,
    ModelParams,
    OscBasis,
    UsageError,
    quanta_expectation,
)
from .dynamics import (
    MAX_RK4_STEPS,
    SINGULAR_STEP,
    ScenarioConfig,
    convert,
    fixed_grid,
    flat_from_state,
    ignore_sample,
    initial_state,
    integrate,
    make_rk4_run,
    scenario_with,
)

__all__ = [
    "LyapunovEstimate",
    "energy_drift",
    "benettin_lyapunov",
    "lyapunov_max",
    "convergence_order",
    "linear_test_order",
    "structure_count",
    "power_law_fit",
    "max_abs_discrepancy",
    "max_abs_remainder",
    "adiabatic_invariant_drift",
]


class LyapunovEstimate(namedtuple("LyapunovEstimate",
                                  "value n_segments window failed note",
                                  defaults=(False, ""))):
    """Largest Lyapunov exponent estimate with its averaging window (t0, t1)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite value is written as None (null)."""
        value = self.value if math.isfinite(self.value) else None
        return {"value": value, "n_segments": self.n_segments,
                "window": list(self.window), "failed": self.failed,
                "note": self.note}


def _sum(values) -> float:
    """Left-to-right float sum from 0.0, as builtin sum() adds before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def energy_drift(cols) -> float:
    """Max over the series of |Etot(t) - Etot(0)| / |Etot(0)|, from the
    column mapping cols (name -> sequence of floats)."""
    etot = cols["Etot"]
    if len(etot) < 2:
        raise UsageError("energy_drift needs at least two records")
    e0 = etot[0]
    if e0 == 0.0:
        raise UsageError("energy_drift undefined for Etot(0) == 0")
    return max(map(abs, map(sub, etot, repeat(e0)))) / abs(e0)


# ---------------------------------------------------------------------------
# Lyapunov (Benettin two-trajectory renormalization)
# ---------------------------------------------------------------------------

RENORM_INTERVAL = 1.0     # Benettin segment length
DISPLACEMENT = 1e-8       # companion offset in the first component (A)
TRANSIENT_FRACTION = 0.1  # leading share of segments discarded


def benettin_lyapunov(run, y0, *, dt, horizon,
                      reference=()) -> LyapunovEstimate:
    """Benettin estimate on the flow of an rk4 run(y, h, n, sample_every=,
    on_sample=, i0=) -> (y, abort) with make_rk4_run's contract: the
    program's make_rk4_run run, or in tests partial(run_fixed,
    partial(rk4_step, rhs)) with tests/oracles.py's run_fixed.  Segment k is
    the run of n_sub steps from grid step i0 = k * n_sub, sampled at its
    last step only, into ignore_sample; every time it reports is a step's
    (i0 + i) * h, as integrate()'s is.

    Two copies of the system start DISPLACEMENT apart in the first
    component; after every RENORM_INTERVAL the log separation growth is
    recorded and the companion is pulled back to the reference.  Of the
    whole segments within the horizon the first TRANSIENT_FRACTION is
    discarded, the rest averaged over the window they span (none kept: from
    the cut to the horizon, clamped).  The estimate fails on more than
    MAX_RK4_STEPS steps per copy, when no segment survives the transient cut
    (before any step), and where the companion equals the reference
    (DISPLACEMENT absorbed by rounding).

    `reference` holds the reference's states at the ends of its first
    segments, from a run already made; only the companion is stepped over
    those, and the reference is stepped on from the last of them.  A copy
    stops only where its run aborts, failing the estimate: the note names
    the earlier abort of the segment (the reference's on a tie), "singular
    evaluation at t=..." for a step that raised, else the run's reason.
    """
    if not (horizon > 0.0):
        raise UsageError("horizon must be positive")
    n_seg = max(1, math.floor(horizon / RENORM_INTERVAL))
    skip = math.ceil(TRANSIENT_FRACTION * n_seg)
    logs = []

    def finish(note=""):
        # a note marks a failed estimate; no kept segment fails it too
        kept = logs[skip:]
        end = len(logs) * RENORM_INTERVAL if kept else horizon
        window = (min(skip * RENORM_INTERVAL, end), end)
        note = note or ("" if kept else "no segments survived the transient cut")
        value = _sum(kept) / (len(kept) * RENORM_INTERVAL) if kept else math.nan
        return LyapunovEstimate(value=value, n_segments=len(kept), window=window,
                                failed=bool(note), note=note)

    if not (n_seg * RENORM_INTERVAL / dt <= MAX_RK4_STEPS):
        return finish(f"dt = {dt} makes more than {MAX_RK4_STEPS:.6g} steps "
                      f"over {n_seg} segments")
    if skip >= n_seg:
        return finish()
    n_sub, h = fixed_grid(RENORM_INTERVAL, dt)
    segment = partial(run, sample_every=n_sub, on_sample=ignore_sample)
    absorbed = (f"displacement {DISPLACEMENT} absorbed: the companion equals "
                f"the reference at t=")

    y_ref = tuple(y0)
    y_cmp = tuple(v + (DISPLACEMENT if i == 0 else 0.0)
                  for i, v in enumerate(y_ref))
    if y_cmp == y_ref:
        return finish(f"{absorbed}0.0")
    for seg in range(n_seg):
        i0 = seg * n_sub
        if seg < len(reference):
            y_ref, ref_abort = reference[seg], None
        else:
            y_ref, ref_abort = segment(y_ref, h, n_sub, i0=i0)
        y_cmp, cmp_abort = segment(y_cmp, h, n_sub, i0=i0)
        aborts = [a for a in (ref_abort, cmp_abort) if a is not None]
        if aborts:
            _, t_stop, why = min(aborts, key=lambda a: a[1])
            return finish(f"singular evaluation at t={t_stop}"
                          if why == SINGULAR_STEP else f"trajectory aborted: {why}")
        d = math.sqrt(_sum((a - b) ** 2 for a, b in zip(y_ref, y_cmp)))
        if d == 0.0:
            return finish(f"{absorbed}{(i0 + n_sub) * h}")
        logs.append(math.log(d / DISPLACEMENT))
        scale = DISPLACEMENT / d
        y_cmp = tuple(a + (b - a) * scale for a, b in zip(y_ref, y_cmp))
    return finish()


_FLOW = ("A", "Adot", "rho", "rhodot")  # the pinney state, as CSV columns


def _main_rows(config: ScenarioConfig, main, steps: int):
    """`main`'s (A, Adot, rho, rhodot) rows at grid steps 0, steps,
    2 * steps, ... and at its last step; None unless `main` is a completed
    rk4 run of this config (main.config == config: integrate() is
    deterministic, so it holds integrate(config)'s rows) whose
    sample_every divides `steps`.  Such a run samples every
    sample_every-th step and the last: these are every
    (steps / sample_every)-th row before the last, and the last.
    """
    every = config.sample_every
    if (main is None or main.config != config or not main.completed
            or config.method != "rk4" or steps % every):
        return None
    k = steps // every
    return list(zip(*(main.columns[c][:-1:k] + main.columns[c][-1:]
                      for c in _FLOW)))


def lyapunov_max(config: ScenarioConfig, *, main=None) -> LyapunovEstimate:
    """Largest Lyapunov exponent of the scenario's (A, Adot, rho, rhodot)
    flow over the horizon config.t_end.

    Always runs in the pinney representation with the config's fixed step,
    each copy stopped at rho_min or a non-finite state as integrate()'s run
    is; the initial displacement is applied to A.  `main`, integrate(config)
    when the caller has it, supplies the reference's segment ends where it
    is that copy: a pinney run whose step equals the segment's (the pinney
    step never reads t), read through _main_rows.  The estimate is the
    same either way.
    """
    pconf = scenario_with(config, representation="pinney")
    y0 = flat_from_state(initial_state(pconf))
    reference = ()
    # benettin_lyapunov fails a longer segment unstepped; 1 / dt may overflow
    if (config.representation == "pinney"
            and RENORM_INTERVAL / config.dt <= MAX_RK4_STEPS):
        n, h_main = fixed_grid(config.t_end, config.dt)
        n_sub, h = fixed_grid(RENORM_INTERVAL, config.dt)
        if h == h_main and (rows := _main_rows(config, main, n_sub)):
            reference = rows[1:n // n_sub + 1]
    return benettin_lyapunov(
        make_rk4_run("pinney", config.params, config.rho_min), y0,
        dt=config.dt, horizon=config.t_end, reference=reference)


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------

def _observed_order(errors) -> float:
    """Mean log2 ratio of successive errors along a ladder of halving steps."""
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    return _sum(orders) / len(orders)


def _order_legs(config: ScenarioConfig):
    """The order study's legs, coarse to fine, as (dt, sample_every) pairs.

    The ladder is (2dt, dt, dt/2) when an rk4 config at 2dt passes
    ScenarioConfig's whole-step rule, else (dt, dt/2, dt/4).  Each leg's
    stride puts its samples on the shared times: the dt grid's steps that
    are multiples of s, lcm(sample_every, 2) on the first ladder and
    sample_every on the second, plus the final state.
    """
    dt, every = config.dt, config.sample_every
    try:
        scenario_with(config, method="rk4", dt=2.0 * dt)
    except UsageError:
        return (dt, every), (dt / 2.0, 2 * every), (dt / 4.0, 4 * every)
    s = math.lcm(every, 2)
    return (2.0 * dt, s // 2), (dt, s), (dt / 2.0, 2 * s)


def _leg_flow(config: ScenarioConfig, main, dt: float, stride: int):
    """One leg's (A, Adot, rho, rhodot) rows at the shared times.

    The dt leg is _main_rows(config, main, stride) where that is not None.
    Otherwise the leg is integrate() on the config with method rk4, the
    leg's dt and sample_every = stride, so only the four columns outlive
    the run.
    """
    if dt == config.dt and (rows := _main_rows(config, main, stride)):
        return rows
    traj = integrate(scenario_with(config, method="rk4", dt=dt,
                                   sample_every=stride))
    if not traj.completed:
        raise DiagnosticError(f"run at dt={dt} aborted: {traj.abort_reason}")
    return list(zip(*(traj.columns[k] for k in _FLOW)))


def _rms_distance(a, b) -> float:
    """RMS over the samples of the Euclidean distance between two legs'
    flow rows."""
    sq = [_sum((x - y) ** 2 for x, y in zip(p, q)) for p, q in zip(a, b)]
    return math.sqrt(_sum(sq) / len(sq))


def convergence_order(config: ScenarioConfig, *, main=None) -> float:
    """Observed order from self-convergence over the legs' shared samples.

    Integrates the scenario with rk4 on each leg of _order_legs(config),
    measures each pair of successive legs by the RMS, over their shared
    samples, of the distance of (A, Adot, rho, rhodot), and averages the
    log2 ratios.  Each leg is a ScenarioConfig, so a step that does not
    divide t_end into whole steps raises UsageError.  When config is rk4,
    `main`, a completed integrate(config), is the dt leg (see _leg_flow).
    Classical rk4 on a smooth trajectory sits near 4; an order that is not
    finite and positive, as when the legs differ only by round-off, raises
    DiagnosticError.
    """
    errors, prev = [], None
    for dt, stride in _order_legs(config):
        flow = _leg_flow(config, main, dt, stride)
        if prev is not None:
            errors.append(_rms_distance(prev, flow))
        prev = flow
    if any(e == 0.0 for e in errors):
        raise DiagnosticError("successive runs coincide; no error signal to fit")
    order = _observed_order(errors)
    if not (math.isfinite(order) and order > 0.0):
        raise DiagnosticError(f"observed order {order:.6g} is not finite and "
                              f"positive: the legs show no truncation error")
    return order


def linear_test_order() -> float:
    """Self-test of the program's rk4 run on fddot = -f against the exact
    cosine.

    Steps make_rk4_run's mode run at e = 0 from A = Adot = 0, where A stays
    0 and w2 is exactly 1.0, so (Re f, Re fdot) takes the rk4 steps of
    (x, v)' = (v, -x) term for term from (1, 0); (Im f, Im fdot) starts at
    (0, 1), keeping |f|^2 = 1 far above the width floor.  Uses true errors
    at t = 5 at dt = 0.04, 0.02 and 0.01, so the estimate is anchored to a
    known solution rather than self-convergence.
    """
    t_end = 5.0
    run = make_rk4_run("mode", ModelParams(m=1.0, e=0.0, hbar=1.0), 1e-8)
    errs = []
    for dt in (0.04, 0.02, 0.01):
        n, h = fixed_grid(t_end, dt)
        y, _ = run((0.0, 0.0, 1.0, 0.0, 0.0, 1.0), h, n, n, ignore_sample)
        errs.append(math.hypot(y[2] - math.cos(t_end), y[4] + math.sin(t_end)))
    return _observed_order(errs)


# ---------------------------------------------------------------------------
# structure and discrepancy metrics
# ---------------------------------------------------------------------------

def structure_count(series, floor: float = 1e-9) -> int:
    """Number of strict local maxima rising at least `floor` above both neighbors.

    The floor is absolute because the occupation series legitimately touch
    zero, where any relative floor would blow up.
    """
    if len(series) < 3:
        raise UsageError("structure_count needs at least three samples")
    if floor < 0.0:
        raise UsageError("noise floor must be nonnegative")
    count = 0
    for prev, cur, nxt in zip(series, series[1:], series[2:]):
        if cur > prev + floor and cur > nxt + floor:
            count += 1
    return count


def max_abs_discrepancy(cols) -> float:
    """max over the series of |N_ours - N_cdms|."""
    return max(map(abs, map(sub, cols["N_ours"], cols["N_cdms"])))


def max_abs_remainder(cols) -> float:
    """max over the series of |(N_ours - N_cdms) - dN_leading|."""
    return max(map(abs, map(sub, map(sub, cols["N_ours"], cols["N_cdms"]),
                            cols["dN_leading"])))


def power_law_fit(xs, ys) -> tuple[float | None, str]:
    """Least-squares power p of y ~ x^p: (p, "") or (None, why not).

    No fit for fewer than three points, all ys zero (zero signal), a
    non-positive x or y, or a single distinct x.  The slope of log y on
    log x uses centred sums, as statistics.linear_regression does.
    """
    if len(xs) < 3:
        return None, "insufficient legs for a power fit (need at least 3 completed)"
    if all(y == 0.0 for y in ys):
        return None, "zero signal: no measurable discrepancy, fit rejected"
    if not all(v > 0.0 for v in (*xs, *ys)):
        return None, "mixed zero/nonzero discrepancy amplitudes; fit rejected"
    if len(set(xs)) < 2:
        return None, "all values coincide; fit rejected"
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = math.fsum((a - mx) * (a - mx) for a in lx)
    return sxy / sxx, ""


# ---------------------------------------------------------------------------
# adiabatic invariant
# ---------------------------------------------------------------------------

def adiabatic_invariant_drift(config: ScenarioConfig) -> float:
    """Worst-case quanta of the invariant basis along the trajectory.

    The moments are evolved as their own linear system while a Pinney width
    is co-integrated in the same state vector; at every sample the moments
    are counted in the basis built from that independent width
    (W = 1/rho^2, sigma = -rhodot/rho).  In exact arithmetic the count stays
    at its initial zero; the returned max |N| measures the combined
    integration error, and is the testable form of the invariance of the
    conserved quadratic operator.  It steps rk4 at the config's dt, so
    ScenarioConfig's rk4 whole-step rule and step bound apply to that dt,
    also for an adaptive config, before any step is taken.
    """
    params = config.params
    start = initial_state(scenario_with(config, representation="pinney",
                                        method="rk4"))
    y = (*flat_from_state(convert(start, "moments", params)),
         start.quantum.rho, start.quantum.rhodot)
    h = params.hbar
    n, dt = fixed_grid(config.t_end, config.dt)
    worst = 0.0

    def sample(t, y):
        nonlocal worst
        mom = GaussianMoments(x2=y[2], p2=y[4], c=y[3])
        basis = OscBasis(W=1.0 / (y[5] * y[5]), sigma=-y[6] / y[5])
        worst = max(worst, abs(quanta_expectation(mom, basis, h)))

    run = make_rk4_run("augmented", params, config.rho_min)
    _, abort = run(y, dt, n, config.sample_every, sample)
    if abort is not None:
        raise DiagnosticError(f"augmented run aborted: {abort[2]}")
    return worst
