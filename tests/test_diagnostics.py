"""Diagnostics tests: drift, Lyapunov, order, structure, scaling.

The Lyapunov and convergence machinery is validated on problems with known
behavior (linear oscillator, free particle, decoupled scenarios) before any
coupled-system number is trusted; coupled-system values are recorded as
regression baselines, not asserted from first principles.
"""

import json
import math
import re
from array import array
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiosc import (
    DiagnosticError,
    ModelParams,
    ScenarioConfig,
    TimeSeriesRecord,
    UsageError,
    adiabatic_invariant_drift,
    benettin_lyapunov,
    convergence_order,
    energy_drift,
    integrate,
    linear_test_order,
    load_scenario,
    lyapunov_max,
    max_abs_discrepancy,
    max_abs_remainder,
    scenario_with,
    structure_count,
)
from semiosc import diagnostics
from semiosc.core import SemiquantumError
from semiosc.diagnostics import LyapunovEstimate, power_law_fit
from semiosc.dynamics import (
    COLUMNS,
    Records,
    fixed_grid,
    flat_from_state,
    initial_state,
    make_rk4_run,
    rk4_step,
)
from conftest import quick_config
from oracles import run_fixed


def _rec(t=0.0, Etot=1.0, N_ours=0.0, N_cdms=0.0, dN_leading=0.0):
    zeros = dict.fromkeys(
        ("A", "Adot", "rho", "rhodot", "Omega", "Omegadot", "omega", "omegadot",
         "x2", "p2", "c", "Hx", "corr"), 0.0)
    return TimeSeriesRecord(t=t, Etot=Etot, N_ours=N_ours, N_cdms=N_cdms,
                            dN_leading=dN_leading, **zeros)


def _records(*recs):
    """The Records view of the given rows."""
    return Records({k: [getattr(r, k) for r in recs] for k in COLUMNS})


def _run(rhs):
    """benettin_lyapunov's run on a toy right-hand side."""
    return partial(run_fixed, partial(rk4_step, rhs))


# ---------------------------------------------------------------------------
# energy drift
# ---------------------------------------------------------------------------

def test_energy_drift_constant_series():
    recs = _records(*(_rec(t=float(i)) for i in range(5)))
    assert energy_drift(recs) == 0.0


def test_energy_drift_direct_value():
    recs = _records(_rec(Etot=1.0), _rec(t=1.0, Etot=1.0 + 1e-8))
    assert energy_drift(recs) == pytest.approx(1e-8, rel=1e-9)


def test_energy_drift_usage_errors():
    with pytest.raises(UsageError):
        energy_drift(_records(_rec()))
    with pytest.raises(UsageError):
        energy_drift(_records(_rec(Etot=0.0), _rec(t=1.0, Etot=0.0)))


def test_energy_drift_halving_ratio(unit_params):
    cfg = quick_config(unit_params, t_end=20.0, dt=2e-3)
    d1 = energy_drift(integrate(cfg).records)
    d2 = energy_drift(integrate(scenario_with(cfg, dt=1e-3)).records)
    assert d1 / d2 == pytest.approx(16.0, abs=6.0)  # rk4 order


# ---------------------------------------------------------------------------
# Lyapunov
# ---------------------------------------------------------------------------

def test_lyapunov_free_particle_flow():
    def rhs(t, y):
        return (y[1], 0.0)

    est = benettin_lyapunov(_run(rhs), (0.0, 1.0), dt=1e-2, horizon=50.0)
    assert not est.failed
    assert abs(est.value) <= 1e-3


def test_lyapunov_harmonic_self_test():
    def rhs(t, y):
        return (y[1], -y[0])

    est = benettin_lyapunov(_run(rhs), (1.0, 0.0), dt=1e-2, horizon=100.0)
    assert not est.failed
    assert abs(est.value) <= 1e-3


def test_lyapunov_integrable_scenario():
    free = load_scenario("free")
    for horizon in (50.0, 50.6):
        est = lyapunov_max(scenario_with(free, t_end=horizon))
        assert not est.failed
        assert abs(est.value) <= 1e-3
        # whole segments within the horizon, the first 10% discarded
        assert est.n_segments == 45
        assert est.window == (5.0, 50.0)


def test_lyapunov_deterministic():
    cfg = scenario_with(load_scenario("vacuum-kick"), t_end=20.0)
    a = lyapunov_max(cfg)
    b = lyapunov_max(cfg)
    assert a == b  # bit-identical reports for identical configs


def _compensated_sum(values):
    """Builtin sum() of floats from Python 3.12 on: Neumaier-compensated."""
    total = c = 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_reports_do_not_depend_on_the_pythons_sum(monkeypatch):
    # Python 3.12's sum(), shadowed into the module, moves no bit of either
    # report: its float sums add left to right on every supported Python
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    cfg = scenario_with(load_scenario("vacuum-kick"), t_end=10.0)
    before = lyapunov_max(cfg), convergence_order(cfg)
    monkeypatch.setattr(diagnostics, "sum", _compensated_sum, raising=False)
    after = lyapunov_max(cfg), convergence_order(cfg)
    assert after == before
    assert [after[0].value.hex(), after[1].hex()] == \
        [before[0].value.hex(), before[1].hex()]


def test_lyapunov_strong_scenario_baseline():
    # regression baseline recorded from the first validated run of the
    # strong-coupling probe; not a first-principles value
    est = lyapunov_max(load_scenario("strong"))
    assert not est.failed
    assert 0.02 <= est.value <= 0.08


def test_lyapunov_reports_failed_runs(unit_params):
    cfg = ScenarioConfig(params=unit_params, A0=0.0, Adot0=0.0, t_end=20.0,
                         dt=1e-3, sample_every=1, quantum_init="explicit",
                         rho0=0.6, rhodot0=-2.0, rho_min=0.5)
    est = lyapunov_max(cfg)
    assert est.failed
    assert "aborted" in est.note


def test_lyapunov_flags_a_displacement_absorbed_at_the_start():
    # A0 + DISPLACEMENT == A0 at this size: the companion is the reference
    cfg = scenario_with(load_scenario("strong"), e=1e-9, A0=1.4142135623730951e9)
    est = lyapunov_max(cfg)
    assert est.failed
    assert est.n_segments == 0 and math.isnan(est.value)
    assert est.note == ("displacement 1e-08 absorbed: the companion equals "
                        "the reference at t=0.0")


def test_lyapunov_flags_a_displacement_absorbed_at_a_segment_end():
    # a drift to 1e9 swallows the companion's 1e-8 offset in the first step
    est = benettin_lyapunov(_run(lambda t, y: (1e9,)), (0.0,), dt=0.5,
                            horizon=3.0)
    assert est.failed
    assert est.note.endswith("equals the reference at t=1.0")


def test_lyapunov_bounds_its_work(unit_params):
    # 1e7 rk4 steps over t_end, but 1e9 per copy over one Benettin segment
    est = lyapunov_max(quick_config(unit_params, t_end=0.01, dt=1e-9))
    assert est.failed
    assert est.note == "dt = 1e-09 makes more than 1e+08 steps over 1 segments"
    est = benettin_lyapunov(_run(lambda t, y: (y[1], 0.0)), (0.0, 1.0),
                            dt=1e-320, horizon=1.0)  # 1 / dt overflows
    assert est.failed and est.note.startswith("dt = 1e-320 makes more")
    # a one-step run on that grid completes; its segment grid is not read
    cfg = quick_config(unit_params, t_end=1e-320, dt=1e-320, sample_every=1)
    est = lyapunov_max(cfg, main=integrate(cfg))
    assert est.failed and est.note.startswith("dt = 1e-320 makes more")


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_lyapunov_rejects_a_horizon_that_is_not_positive(horizon):
    with pytest.raises(UsageError, match="horizon must be positive"):
        benettin_lyapunov(_run(lambda t, y: (y[1], -y[0])), (1.0, 0.0),
                          dt=1e-3, horizon=horizon)


def test_lyapunov_to_dict_writes_null_for_a_non_finite_value():
    est = LyapunovEstimate(value=math.nan, n_segments=0, window=(1.0, 1.0),
                           failed=True, note="no segments")
    assert est.to_dict()["value"] is None
    json.dumps(est.to_dict(), allow_nan=False)
    assert math.isnan(est.value)  # the sweep's aggregate still reads nan


@pytest.mark.parametrize("horizon, window", [(0.01, (0.01, 0.01)),
                                             (1.2, (1.0, 1.2))])
def test_lyapunov_fails_before_stepping_when_no_segment_survives(horizon,
                                                                 window):
    # one segment, discarded as transient: no run is worth making
    calls = []
    run = _run(lambda t, y: (y[1], -y[0]))
    est = benettin_lyapunov(lambda *a, **kw: calls.append(1) or run(*a, **kw),
                            (1.0, 0.0), dt=1e-3, horizon=horizon)
    assert est.failed and est.n_segments == 0 and math.isnan(est.value)
    assert est.note == "no segments survived the transient cut"
    assert est.window == window  # never running backwards
    assert calls == []


@pytest.mark.parametrize("fails_ref, fails_cmp", [(2.5, 2.25), (2.25, 2.5),
                                                  (2.25, 2.25)])
def test_lyapunov_note_names_the_earlier_failing_step(fails_ref, fails_cmp):
    # a still flow whose step raises from a time set per copy: the reference
    # sits at 0.0, the companion DISPLACEMENT off it; both fail inside the
    # segment [2, 3), and the note gives the earlier failure's step time
    def step(t, y, h):
        if t >= (fails_ref if y[0] == 0.0 else fails_cmp):
            raise ZeroDivisionError
        return y

    est = benettin_lyapunov(partial(run_fixed, step), (0.0,), dt=0.25,
                            horizon=5.0)
    assert est.failed and est.n_segments == 1
    assert est.note == f"singular evaluation at t={min(fails_ref, fails_cmp)}"


# ---------------------------------------------------------------------------
# studies that read the main run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("changes, copies", [
    ({}, 1),                               # the main run is the reference
    ({"t_end": 2.6}, 1),                   # the same step, 1.0 / 1000, and
                                           # both segments end within it
    ({"dt": 0.003, "t_end": 3.0}, 2),      # 333 steps of 1.0 / 333
    ({"sample_every": 7}, 2),              # 7 does not divide 1000
    ({"method": "adaptive"}, 2),
    ({"representation": "mode"}, 2),
    ({"rho_min": 0.9}, 2),                 # the main run aborts
])
def test_lyapunov_steps_only_the_companion_on_the_main_runs_grid(
        unit_params, monkeypatch, changes, copies):
    cfg = quick_config(unit_params, **{"t_end": 2.0, "dt": 1e-3, **changes})
    main = integrate(cfg)
    calls = []
    make = diagnostics.make_rk4_run

    def counting(representation, params, rho_min):
        run = make(representation, params, rho_min)
        return lambda y, h, n, **kw: calls.append(n) or run(y, h, n, **kw)

    monkeypatch.setattr(diagnostics, "make_rk4_run", counting)
    est = lyapunov_max(cfg, main=main)
    stepped = sum(calls)
    assert est == lyapunov_max(cfg)
    if main.completed:  # copies of the whole segments within t_end
        assert stepped == copies * math.floor(cfg.t_end) * round(1.0 / cfg.dt)


def test_convergence_order_reads_the_dt_leg_off_a_completed_rk4_run(
        unit_params, monkeypatch):
    legs = []
    run = diagnostics.integrate
    monkeypatch.setattr(diagnostics, "integrate", lambda config: legs.append(
        (config.dt, config.sample_every)) or run(config))
    coarse = [(4e-3, 5), (2e-3, 10), (1e-3, 20)]  # (2dt, dt, dt/2), s = 10
    fine = [(2e-3, 10), (1e-3, 20), (5e-4, 40)]   # (dt, dt/2, dt/4), s = 10
    odd = [(4e-3, 7), (2e-3, 14), (1e-3, 28)]     # s = lcm(7, 2): main's
                                                  # every other row
    for changes, ladder, reused in [
            ({}, coarse, True),
            ({"t_end": 2.6}, coarse, True),        # 650 steps of 4e-3
            ({"t_end": 2.002}, fine, True),        # 1001 steps: 4e-3 does not
                                                   # divide t_end
            ({"sample_every": 7}, odd, True),
            ({"method": "adaptive"}, coarse, False)]:
        cfg = quick_config(unit_params, **{"t_end": 2.0, "dt": 2e-3, **changes})
        main = run(cfg)
        legs.clear()
        assert convergence_order(cfg, main) == convergence_order(cfg)
        with_main = [leg for leg in ladder if not reused or leg[0] != 2e-3]
        assert legs == with_main + ladder


@given(A0=st.floats(0.5, 1.5), Adot0=st.floats(0.5, 1.5),
       dt=st.sampled_from((0.01, 0.02, 0.025, 0.03, 0.05)),
       t_end=st.sampled_from((1.0, 2.0, 2.6, 3.0, 4.2)),
       sample_every=st.integers(1, 12),
       rho_min=st.sampled_from((1e-8, 0.6, 0.8)))
@settings(max_examples=100, deadline=None)
@example(A0=1.0, Adot0=1.0, dt=0.01, t_end=3.0, sample_every=10, rho_min=1e-8)
@example(A0=1.0, Adot0=1.0, dt=0.03, t_end=3.0, sample_every=1, rho_min=1e-8)
@example(A0=1.0, Adot0=1.0, dt=0.05, t_end=2.6, sample_every=10, rho_min=1e-8)
@example(A0=1.0, Adot0=1.0, dt=0.05, t_end=4.2, sample_every=4, rho_min=1e-8)
def test_studies_reading_the_main_run_match_their_own_runs(
        A0, Adot0, dt, t_end, sample_every, rho_min):
    # the first example shares the Benettin grid (1.0 / 100 == 3.0 / 300),
    # the second does not (1.0 / 33 != 3.0 / 100); in the third the run's
    # last row (step 52, sampled off the stride of 10) is no segment's end;
    # in the fourth the run holds four segment ends, and at t_end / 2 the
    # estimate uses two
    try:
        cfg = ScenarioConfig(params=ModelParams(m=1.0, e=1.0, hbar=1.0),
                             A0=A0, Adot0=Adot0, t_end=t_end, dt=dt,
                             sample_every=sample_every, rho_min=rho_min)
    except UsageError:
        assume(False)  # dt does not divide t_end into whole steps
    main = integrate(cfg)
    assert (lyapunov_max(cfg, main=main).to_dict()
            == lyapunov_max(cfg).to_dict())
    # main's segment ends, as lyapunov_max reads them, as the reference of
    # another horizon: past the run the reference is stepped on; short of
    # its end the run holds more segment ends than the estimate uses
    n, h_main = fixed_grid(t_end, dt)
    n_sub, h = fixed_grid(diagnostics.RENORM_INTERVAL, dt)
    rows = diagnostics._main_rows(cfg, main, n_sub)
    if h == h_main and rows:
        run = make_rk4_run("pinney", cfg.params, rho_min)
        y0 = flat_from_state(initial_state(cfg))
        for horizon in (t_end + 2.0, t_end / 2.0):
            ests = [benettin_lyapunov(run, y0, dt=dt, horizon=horizon,
                                      reference=reference).to_dict()
                    for reference in (rows[1:n // n_sub + 1], ())]
            assert ests[0] == ests[1]
    outcomes = []
    for reused in (main, None):
        try:
            outcomes.append(convergence_order(cfg, reused))
        except SemiquantumError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("t_end, foreign", [
    (4.6, {"t_end": 2.6}),   # main ends at 2.6
    (2.6, {"dt": 0.005}),    # main steps 0.005 where the config steps 0.01
], ids=["t_end", "dt"])
def test_studies_do_not_read_another_configs_run(t_end, foreign):
    # a completed rk4 run of another config is not read as the main run:
    # each study returns what it returns without one
    cfg = ScenarioConfig(params=ModelParams(m=1.0, e=1.0, hbar=1.0), A0=1.0,
                         Adot0=1.0, t_end=t_end, dt=0.01, sample_every=10)
    main = integrate(scenario_with(cfg, **foreign))
    assert main.completed
    assert convergence_order(cfg, main) == convergence_order(cfg)
    assert (lyapunov_max(cfg, main=main).to_dict()
            == lyapunov_max(cfg).to_dict())


_ABORT_NOTE = re.compile(r"(singular evaluation|trajectory aborted: .*) "
                         r"at t=(\S+)")


@given(m=st.floats(0.5, 2.0), e=st.floats(0.0, 2.0), A0=st.floats(-3.0, 3.0),
       Adot0=st.floats(-3.0, 3.0), rho0=st.floats(0.3, 2.0),
       rhodot0=st.floats(-3.0, 3.0), floor=st.floats(0.05, 0.9))
@settings(max_examples=100, deadline=None)
@example(m=1.3121187091902449, e=1.8782983255570211, A0=-0.7127745738707256,
         Adot0=-1.7004036172163197, rho0=1.0175981784906194,
         rhodot0=-2.8257552745507923, floor=0.2426339893426231 / 1.0175981784906194)
def test_lyapunov_fails_where_the_run_stops(m, e, A0, Adot0, rho0, rhodot0,
                                            floor):
    # the run's step is the segment's (6.0 / 600 == 1.0 / 100), so the
    # reference copy takes the run's steps and stops where the run does;
    # the example floors at t = 1.19, after a whole segment
    cfg = ScenarioConfig(params=ModelParams(m=m, e=e, hbar=1.0), A0=A0,
                         Adot0=Adot0, t_end=6.0, dt=0.01,
                         quantum_init="explicit", rho0=rho0, rhodot0=rhodot0,
                         rho_min=floor * rho0)
    traj = integrate(cfg)
    if traj.completed:
        return
    ests = [lyapunov_max(cfg), lyapunov_max(cfg, main=traj)]
    for est in ests:
        assert est.failed, (traj.abort_reason, est)
        # named at a step k of the run no later than its abort, with the
        # time the run gives step k, k * h
        stop = _ABORT_NOTE.fullmatch(est.note)
        assert stop, est.note
        k = round(float(stop[2]) / cfg.dt)
        assert stop[2] == repr(k * cfg.dt), est.note
        assert k <= round(traj.abort_time / cfg.dt)
    assert ests[0].to_dict() == ests[1].to_dict()


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------

def test_linear_problem_order():
    assert 3.7 <= linear_test_order() <= 4.3


def test_decoupled_scenario_self_convergence(decoupled_params):
    # e = 0 with an off-vacuum width: smooth oscillatory dynamics, clean rk4
    cfg = quick_config(decoupled_params, A0=0.0, Adot0=1.0, t_end=5.0, dt=0.02,
                       quantum_init="explicit", rho0=1.2, rhodot0=0.0)
    order = convergence_order(cfg)  # legs 0.02, 0.01, 0.005
    assert 3.7 <= order <= 4.3


def test_coupled_scenario_self_convergence(unit_params):
    cfg = quick_config(unit_params, t_end=10.0, dt=0.002)
    order = convergence_order(cfg)  # legs 0.002, 0.001, 0.0005
    assert 3.7 <= order <= 4.3


def test_convergence_usage_errors(unit_params):
    # a leg's dt is the config's, halved: no config holds a dt that no leg
    # could take, so ScenarioConfig rejects these before any study runs
    with pytest.raises(UsageError, match="dt must be positive, got -0.02"):
        quick_config(unit_params, dt=-0.02)
    with pytest.raises(UsageError, match="dt = 4e-320"):
        quick_config(unit_params, dt=4e-320)
    # an adaptive config holds dt = 0.3, which does not divide t_end = 5
    # into whole steps: its rk4 legs do not
    cfg = quick_config(unit_params, method="adaptive", dt=0.3)
    with pytest.raises(UsageError, match="dt = 0.3"):
        convergence_order(cfg)


def test_convergence_rejects_coinciding_runs(decoupled_params):
    # the decoupled vacuum at rest is a fixed point of every rk4 step
    cfg = quick_config(decoupled_params, A0=0.0, Adot0=0.0, dt=0.02)
    with pytest.raises(DiagnosticError, match="coincide"):
        convergence_order(cfg)


def test_convergence_rejects_an_order_of_round_off():
    # free has no truncation error to measure: its legs differ by round-off,
    # and the mean log2 ratio comes out negative
    with pytest.raises(DiagnosticError, match="not finite and positive"):
        convergence_order(load_scenario("free"))


def test_convergence_order_of_a_drawn_benchmark_start():
    # diagnose-sparse's seed-13 draw: on the (2dt, dt, dt/2) ladder its
    # final-state errors alone give 4.499; the RMS over the shared samples
    # stays near 4
    cfg = ScenarioConfig(params=ModelParams(m=1.0, e=1.0, hbar=1.0),
                         A0=1.0646114763002787, Adot0=1.004937486718678,
                         t_end=30.0, dt=2e-3, sample_every=100)
    assert 3.6 <= convergence_order(cfg, integrate(cfg)) <= 4.4


def test_convergence_rejects_aborted_runs(unit_params):
    cfg = ScenarioConfig(params=unit_params, A0=0.0, Adot0=0.0, t_end=5.0,
                         dt=0.002, sample_every=1, quantum_init="explicit",
                         rho0=0.6, rhodot0=-2.0, rho_min=0.5)
    with pytest.raises(DiagnosticError):
        convergence_order(cfg)  # legs 0.002, 0.001, 0.0005


# ---------------------------------------------------------------------------
# structure count
# ---------------------------------------------------------------------------

def test_structure_count_monotone():
    assert structure_count([0.0, 1.0, 2.0, 3.0]) == 0


def test_structure_count_zigzag():
    assert structure_count([0.0, 1.0, 0.0, 1.0, 0.0], floor=0.0) == 2


def test_structure_count_floor_filters_ripple():
    assert structure_count([0.0, 1e-10, 0.0]) == 0  # below the default floor
    assert structure_count([0.0, 1e-8, 0.0]) == 1


def test_structure_count_usage_errors():
    with pytest.raises(UsageError):
        structure_count([1.0, 2.0])
    with pytest.raises(UsageError):
        structure_count([0.0, 1.0, 0.0], floor=-1.0)


def test_structure_baseline_vacuum_kick():
    # regression baselines from the bundled scenario at its defaults.  At the
    # 1e-9 floor the two series count nearly the same (the sheared series
    # carries noise-level micro-ripples); at 1e-6 the substantial maxima
    # separate clearly, with the shearless series showing more structure.
    traj = integrate(load_scenario("vacuum-kick"))
    n_ours = [r.N_ours for r in traj.records]
    n_cdms = [r.N_cdms for r in traj.records]
    assert structure_count(n_ours) == 65
    assert structure_count(n_cdms) == 66
    assert structure_count(n_ours, floor=1e-6) == 51
    assert structure_count(n_cdms, floor=1e-6) == 31
    assert structure_count(n_ours, floor=1e-6) > structure_count(n_cdms, floor=1e-6)


# ---------------------------------------------------------------------------
# discrepancy scaling
# ---------------------------------------------------------------------------

_XS = (0.2, 0.1, 0.05, 0.025)


@pytest.mark.parametrize("xs, ys, power, note", [
    ((0.2, 0.1), (1.0, 0.5), None, "insufficient"),
    ((0.2, 0.1, 0.05), (0.0, 0.0, 0.0), None, "zero signal"),
    ((0.2, 0.1, 0.05), (1e-4, 1e-5, 0.0), None, "mixed"),
    ((0.2, 0.1, -0.05), (1e-4, 1e-5, 1e-6), None, "mixed"),
    ((0.2, 0.1, 0.0), (1e-4, 1e-5, 1e-6), None, "mixed"),
    ((0.1, 0.1, 0.1), (1e-4, 1e-5, 1e-6), None, "coincide"),
    (_XS, tuple(3.0 * x ** 4 for x in _XS), 4.0, ""),
])
def test_power_law_fit(xs, ys, power, note):
    got, got_note = power_law_fit(xs, ys)
    if power is None:
        assert got is None
        assert note in got_note
    else:
        assert got_note == ""
        assert abs(got - power) <= 1e-12


def test_fitted_amplitude_bounded_by_remainder():
    # |max|dN| - max(dN_leading)| <= max|dN - dN_leading| leg by leg: the
    # exact-identity remainder bounds how far the fitted amplitudes can sit
    # from the closed-form leading prediction
    import semiosc
    base = scenario_with(load_scenario("adiabatic"), t_end=1.5)
    for e in (0.2, 0.1, 0.05):
        traj = integrate(semiosc.scenario_with(base, e=e))
        amp = max_abs_discrepancy(traj.records)
        leading_max = max(r.dN_leading for r in traj.records)
        rem = max_abs_remainder(traj.records)
        assert abs(amp - leading_max) <= rem + 1e-18


def test_max_metrics():
    recs = _records(_rec(N_ours=0.0, N_cdms=0.0, dN_leading=0.0),
                    _rec(t=1.0, N_ours=3.0, N_cdms=1.0, dN_leading=1.5),
                    _rec(t=2.0, N_ours=1.0, N_cdms=2.0, dN_leading=0.0))
    assert max_abs_discrepancy(recs) == 2.0
    assert max_abs_remainder(recs) == 1.0


# the series metrics as generator expressions: their specification
def _energy_drift_oracle(cols):
    etot = cols["Etot"]
    e0 = etot[0]
    return max(abs(v - e0) for v in etot) / abs(e0)


def _max_abs_discrepancy_oracle(cols):
    return max(abs(a - b) for a, b in zip(cols["N_ours"], cols["N_cdms"]))


def _max_abs_remainder_oracle(cols):
    return max(abs((a - b) - d) for a, b, d in zip(cols["N_ours"], cols["N_cdms"],
                                                   cols["dN_leading"]))


def _metric_outcome(metric, arg):
    try:
        return "value", metric(arg).hex()
    except Exception as exc:  # the exception itself is the compared outcome
        return type(exc), str(exc)


series_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]))


@given(st.lists(st.tuples(series_value, series_value, series_value,
                          series_value), min_size=2, max_size=40))
@example([(1.0, math.nan, 0.0, 0.0), (math.nan, 2.0, 0.0, -0.0),
          (3.0, -0.0, math.inf, math.inf)])
@example([(-0.0, 0.0, -0.0, 0.0), (0.0, -0.0, 0.0, -0.0)])
@settings(max_examples=300, deadline=None)
def test_series_metrics_match_their_generator_expressions(rows):
    cols = dict(zip(("Etot", "N_ours", "N_cdms", "dN_leading"),
                    (array("d", column) for column in zip(*rows))))
    recs = Records(cols)
    for metric, oracle in [(max_abs_discrepancy, _max_abs_discrepancy_oracle),
                           (max_abs_remainder, _max_abs_remainder_oracle)]:
        assert _metric_outcome(metric, recs) == _metric_outcome(oracle, cols)
    if cols["Etot"][0] != 0.0:
        assert _metric_outcome(energy_drift, recs) == \
            _metric_outcome(_energy_drift_oracle, cols)


# ---------------------------------------------------------------------------
# adiabatic invariant
# ---------------------------------------------------------------------------

def test_adiabatic_invariant_smoke(unit_params):
    cfg = quick_config(unit_params, t_end=10.0)
    assert adiabatic_invariant_drift(cfg) <= 1e-6


def test_adiabatic_invariant_drift_is_pinned():
    # bit for bit: the augmented flow is the moments and pinney flows
    cfg = scenario_with(load_scenario("vacuum-kick"), t_end=2.0)
    assert adiabatic_invariant_drift(cfg) == 7.66053886991358e-15


@pytest.mark.parametrize("dt, message", [
    (0.3, "dt = 0.3 does not divide t_end = 1.0 into whole steps"),
    (1e-12, "dt = 1e-12 makes 1e+12 steps over t_end = 1.0, more than 1e+08"),
])
def test_adiabatic_invariant_holds_an_adaptive_configs_dt_to_the_rk4_rule(
        unit_params, monkeypatch, dt, message):
    # the check steps rk4 at dt: rejected before any run is made
    monkeypatch.setattr(diagnostics, "make_rk4_run",
                        lambda *a: pytest.fail("a run was made"))
    cfg = quick_config(unit_params, method="adaptive", t_end=1.0, dt=dt)
    with pytest.raises(UsageError) as err:
        adiabatic_invariant_drift(cfg)
    assert str(err.value) == message


def test_adiabatic_invariant_rejects_collapse(unit_params):
    cfg = ScenarioConfig(params=unit_params, A0=0.0, Adot0=0.0, t_end=5.0,
                         dt=1e-3, sample_every=1, quantum_init="explicit",
                         rho0=0.6, rhodot0=-2.0, rho_min=0.5)
    with pytest.raises(DiagnosticError):
        adiabatic_invariant_drift(cfg)
