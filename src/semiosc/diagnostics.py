"""Trajectory-level numerical diagnostics.

Conservation drift, a Benettin largest-Lyapunov estimate, observed
convergence order, local-maximum counting for the two occupation series, and
the coupling-power fit of their discrepancy.  Everything is deterministic:
identical configs produce bit-identical reports on every supported Python
(float sums go through _sum, never the builtin sum, which Python 3.12 made
compensated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .core import (
    DiagnosticError,
    GaussianMoments,
    OscBasis,
    UsageError,
    quanta_expectation,
)
from .dynamics import (
    MAX_RK4_STEPS,
    SINGULAR_STEP,
    Records,
    ScenarioConfig,
    convert,
    fixed_grid,
    flat_from_state,
    initial_state,
    integrate,
    make_rk4_run,
    rk4_step,
    run_fixed,
    scenario_with,
)

__all__ = [
    "LyapunovEstimate",
    "DiscrepancyScaling",
    "energy_drift",
    "benettin_lyapunov",
    "lyapunov_max",
    "convergence_order",
    "linear_test_order",
    "structure_count",
    "power_law_fit",
    "discrepancy_scaling",
    "max_abs_discrepancy",
    "max_abs_remainder",
    "adiabatic_invariant_drift",
]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest Lyapunov exponent estimate with its averaging window."""

    value: float
    n_segments: int
    window: tuple[float, float]
    failed: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite value is written as None (null)."""
        value = self.value if math.isfinite(self.value) else None
        return {"value": value, "n_segments": self.n_segments,
                "window": list(self.window), "failed": self.failed,
                "note": self.note}


@dataclass(frozen=True)
class DiscrepancyScaling:
    """Power-law fit of max|N_ours - N_cdms| against the coupling."""

    power: float | None
    couplings: tuple[float, ...]
    amplitudes: tuple[float, ...]
    remainders: tuple[float, ...]
    zero_signal: bool = False
    note: str = ""


def _sum(values) -> float:
    """Left-to-right float sum from 0.0, as builtin sum() adds before 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def energy_drift(records: Records) -> float:
    """Max over the series of |Etot(t) - Etot(0)| / |Etot(0)|."""
    etot = records.columns["Etot"]
    if len(etot) < 2:
        raise UsageError("energy_drift needs at least two records")
    e0 = etot[0]
    if e0 == 0.0:
        raise UsageError("energy_drift undefined for Etot(0) == 0")
    return max(abs(v - e0) for v in etot) / abs(e0)


# ---------------------------------------------------------------------------
# Lyapunov (Benettin two-trajectory renormalization)
# ---------------------------------------------------------------------------

RENORM_INTERVAL = 1.0     # Benettin segment length
DISPLACEMENT = 1e-8       # companion offset in the first component (A)
TRANSIENT_FRACTION = 0.1  # leading share of segments discarded


def benettin_lyapunov(run, y0, *, dt, horizon,
                      reference=None) -> LyapunovEstimate:
    """Benettin estimate on the flow of an rk4 run(y, h, n, i0=i0) -> (y,
    abort): make_rk4_run's protocol, or partial(run_fixed,
    partial(rk4_step, rhs)).  Segment k is the run of n_sub steps from grid
    step i0 = k * n_sub, so every time it reports is a step's (i0 + i) * h,
    as integrate()'s run reports it.

    Two copies of the system start DISPLACEMENT apart in the first
    component; after every RENORM_INTERVAL the log separation growth is
    recorded and the companion is pulled back to the reference.  Of the
    whole segments within the horizon the first TRANSIENT_FRACTION is
    discarded, the rest averaged over the window they span (none kept: from
    the cut to the horizon, clamped).  The estimate fails on more than
    MAX_RK4_STEPS steps per copy, when no segment survives the transient cut
    (before any step), and where the companion equals the reference
    (DISPLACEMENT absorbed by rounding).

    `reference(n_sub, h)`, when given, returns the reference's states at
    the ends of the segments of n_sub steps h that a run already made
    covers; the reference is stepped on from the last of them.  A copy stops
    only where its run aborts, failing the estimate: the note names the
    earlier abort of the segment (the reference's on a tie), "singular
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
    ref_ends = [] if reference is None else reference(n_sub, h)
    absorbed = (f"displacement {DISPLACEMENT} absorbed: the companion equals "
                f"the reference at t=")

    y_ref = tuple(y0)
    y_cmp = tuple(v + (DISPLACEMENT if i == 0 else 0.0)
                  for i, v in enumerate(y_ref))
    if y_cmp == y_ref:
        return finish(f"{absorbed}0.0")
    for seg in range(n_seg):
        i0 = seg * n_sub
        if seg < len(ref_ends):
            y_ref, ref_abort = ref_ends[seg], None
        else:
            y_ref, ref_abort = run(y_ref, h, n_sub, i0=i0)
        y_cmp, cmp_abort = run(y_cmp, h, n_sub, i0=i0)
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


def _main_reference(config: ScenarioConfig, main):
    """benettin_lyapunov's `reference`, read off `main`, the completed
    pinney rk4 run of `config`; None for any other run.

    The Benettin reference is that run, step for step, when the segment's
    step equals the run's (the pinney step never reads t) and its stride
    divides a segment: the end of segment k, for each k the run reaches, is
    then row k * n_sub / sample_every, whose first columns are the state.
    """
    if (main is None or not main.completed or config.method != "rk4"
            or config.representation != "pinney"):
        return None
    n, h_main = fixed_grid(config.t_end, config.dt)
    every = config.sample_every
    cols = [main.columns[k] for k in _FLOW]

    def reference(n_sub, h):
        if h != h_main or n_sub % every:
            return []
        stride = n_sub // every
        return list(zip(*(c[stride:n // every + 1:stride] for c in cols)))

    return reference


def lyapunov_max(config: ScenarioConfig, horizon: float | None = None,
                 main=None) -> LyapunovEstimate:
    """Largest Lyapunov exponent of the scenario's (A, Adot, rho, rhodot) flow.

    Always runs in the pinney representation with the config's fixed step,
    each copy guarded by rho_min after every step as integrate()'s run is;
    the initial displacement is applied to A.  `main`, integrate(config)
    when the caller has it, supplies the reference copy where it is that
    copy (see _main_reference); the estimate is the same either way.
    """
    pconf = replace(config, representation="pinney")
    y0 = flat_from_state(initial_state(pconf))
    return benettin_lyapunov(
        make_rk4_run("pinney", config.params, config.rho_min), y0,
        dt=config.dt, horizon=config.t_end if horizon is None else horizon,
        reference=_main_reference(config, main))


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
        replace(config, method="rk4", dt=2.0 * dt)
    except UsageError:
        return (dt, every), (dt / 2.0, 2 * every), (dt / 4.0, 4 * every)
    s = math.lcm(every, 2)
    return (2.0 * dt, s // 2), (dt, s), (dt / 2.0, 2 * s)


def _leg_flow(config: ScenarioConfig, main, dt: float, stride: int):
    """One leg's (A, Adot, rho, rhodot) columns at the shared times.

    With `main` the dt leg is read off its rows: every (stride /
    sample_every)-th and the last.  Otherwise the leg is integrate() on the
    config with method rk4, the leg's dt and sample_every = stride, so only
    the four columns outlive the run.
    """
    if main is not None:
        rows = stride // config.sample_every
        cols = [main.columns[k] for k in _FLOW]
        return cols if rows == 1 else [c[:-1:rows] + c[-1:] for c in cols]
    traj = integrate(replace(config, method="rk4", dt=dt, sample_every=stride))
    if not traj.completed:
        raise DiagnosticError(f"run at dt={dt} aborted: {traj.abort_reason}")
    return [traj.columns[k] for k in _FLOW]


def _rms_distance(a, b) -> float:
    """RMS over the samples of the Euclidean distance between two legs' flow
    columns."""
    sq = [_sum((x - y) ** 2 for x, y in zip(p, q))
          for p, q in zip(zip(*a), zip(*b))]
    return math.sqrt(_sum(sq) / len(sq))


def convergence_order(config: ScenarioConfig, main=None) -> float:
    """Observed order from self-convergence over the legs' shared samples.

    Integrates the scenario with rk4 on each leg of _order_legs(config),
    measures each pair of successive legs by the RMS, over their shared
    samples, of the distance of (A, Adot, rho, rhodot), and averages the
    log2 ratios.  Each leg is a ScenarioConfig, so a step that does not
    divide t_end into whole steps raises UsageError.  When config is rk4,
    `main`, a completed integrate(config), is the dt leg.  Classical rk4 on
    a smooth trajectory sits near 4; an order that is not finite and
    positive, as when the legs differ only by round-off, raises
    DiagnosticError.
    """
    reuse = config.method == "rk4" and main is not None and main.completed
    errors, prev = [], None
    for dt, stride in _order_legs(config):
        flow = _leg_flow(config, main if reuse and dt == config.dt else None,
                         dt, stride)
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
    """Self-test of the stepper on Addot = -A against the exact cosine.

    Uses true errors at t = 5 for A(0)=1, Adot(0)=0 at dt = 0.04, 0.02 and
    0.01, so the estimate is anchored to a known solution rather than
    self-convergence.
    """
    t_end = 5.0
    step = partial(rk4_step, lambda t, y: (y[1], -y[0]))
    errs = []
    for dt in (0.04, 0.02, 0.01):
        n, h = fixed_grid(t_end, dt)
        y, _ = run_fixed(step, (1.0, 0.0), h, n)
        errs.append(math.hypot(y[0] - math.cos(t_end), y[1] + math.sin(t_end)))
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


def max_abs_discrepancy(records: Records) -> float:
    """max over the series of |N_ours - N_cdms|."""
    cols = records.columns
    return max(abs(a - b) for a, b in zip(cols["N_ours"], cols["N_cdms"]))


def max_abs_remainder(records: Records) -> float:
    """max over the series of |(N_ours - N_cdms) - dN_leading|."""
    cols = records.columns
    return max(abs((a - b) - d) for a, b, d in zip(cols["N_ours"], cols["N_cdms"],
                                                   cols["dN_leading"]))


_ZERO_SIGNAL = "zero signal: no measurable discrepancy, fit rejected"


def power_law_fit(xs, ys) -> tuple[float | None, str]:
    """Least-squares power p of y ~ x^p: (p, "") or (None, why not).

    No fit for fewer than three points, all ys zero (zero signal), a
    non-positive x or y, or a single distinct x.  The slope of log y on
    log x uses centred sums, as statistics.linear_regression does.
    """
    if len(xs) < 3:
        return None, "insufficient legs for a power fit (need at least 3 completed)"
    if all(y == 0.0 for y in ys):
        return None, _ZERO_SIGNAL
    if not all(v > 0.0 for v in (*xs, *ys)):
        return None, "mixed zero/nonzero discrepancy amplitudes; fit rejected"
    if len(set(xs)) < 2:
        return None, "all values coincide; fit rejected"
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    sxx = math.fsum((a - mx) * (a - mx) for a in lx)
    return sxy / sxx, ""


def discrepancy_scaling(base_config: ScenarioConfig, e_list) -> DiscrepancyScaling:
    """Fit max|N_ours - N_cdms| against the coupling over a scenario family.

    Couplings must form a geometric progression (all zero is allowed and
    reported as a zero-signal result) and every leg must start inside the
    weak-coupling regime e^2 A0^2 / m^2 < 1.  Also returns, per coupling, the
    worst deviation of the measured discrepancy from its leading-order law,
    for the next-order remainder check.
    """
    e_list = tuple(float(e) for e in e_list)
    if len(e_list) < 3:
        raise UsageError("discrepancy scaling needs at least three couplings")
    if any(e < 0.0 for e in e_list):
        raise UsageError("couplings must be nonnegative")
    if all(e == 0.0 for e in e_list):
        # every leg is the same decoupled run: integrate it once
        records = integrate(scenario_with(base_config, e=0.0)).records
        n = len(e_list)
        return DiscrepancyScaling(power=None, couplings=e_list,
                                  amplitudes=(max_abs_discrepancy(records),) * n,
                                  remainders=(max_abs_remainder(records),) * n,
                                  zero_signal=True,
                                  note="zero signal: all couplings are zero")
    if any(e == 0.0 for e in e_list):
        raise UsageError("couplings must be all zero or a geometric progression "
                         "of positive values")
    ratios = [a / b for a, b in zip(e_list, e_list[1:])]
    if any(not math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios):
        raise UsageError(f"couplings must form a geometric progression, got {e_list}")
    m = base_config.params.m
    for e in e_list:
        if (e * base_config.A0 / m) ** 2 >= 1.0:
            raise UsageError(
                f"coupling e={e} puts the start outside the weak regime "
                f"e^2 A0^2/m^2 < 1")
    amps = []
    rems = []
    for e in e_list:
        traj = integrate(scenario_with(base_config, e=e))
        if not traj.completed:
            raise DiagnosticError(f"scaling leg e={e} aborted: {traj.abort_reason}")
        amps.append(max_abs_discrepancy(traj.records))
        rems.append(max_abs_remainder(traj.records))
    power, note = power_law_fit(e_list, amps)
    if power is None and note != _ZERO_SIGNAL:
        raise DiagnosticError(note)
    return DiscrepancyScaling(power=power, couplings=e_list,
                              amplitudes=tuple(amps), remainders=tuple(rems),
                              zero_signal=power is None, note=note)


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
    conserved quadratic operator.
    """
    params = config.params
    start = initial_state(replace(config, representation="pinney"))
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
