"""Integration tests: initial states, conversions, conservation, aborts."""

import math

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from semiosc import (
    COLUMNS,
    GaussianMoments,
    ModeSector,
    ModelParams,
    OscBasis,
    PinneySector,
    DomainError,
    ScenarioConfig,
    SemiState,
    UsageError,
    ValidationError,
    convert,
    dynamics,
    init_adiabatic,
    init_vacuum,
    initial_state,
    integrate,
    mode_wronskian,
    record_observables,
    scenario_with,
    state_effective_frequency,
)
from conftest import quick_config
from oracles import run_adaptive, run_fixed


def _rates(state, params):
    """Every component's rate, on the state's flat layout."""
    rhs = dynamics.make_rhs(state.representation, params)
    return rhs(state.t, dynamics.flat_from_state(state))


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def test_init_vacuum_kicked(unit_params):
    state = init_vacuum(1.0, 0.0, unit_params)
    assert state.quantum.rho == pytest.approx(2.0 ** -0.25, rel=1e-15)
    assert state.quantum.rhodot == 0.0
    dA, dAdot, drho, drhodot = _rates(state, unit_params)
    assert dA == 0.0
    assert dAdot == pytest.approx(-1.0 / (2.0 * math.sqrt(2.0)), rel=1e-13)
    assert drho == 0.0
    assert abs(drhodot) <= 1e-14  # width starts at its momentary equilibrium


def test_init_vacuum_static_fixed_point(unit_params):
    state = init_vacuum(0.0, 0.0, unit_params)
    assert (state.quantum.rho, state.quantum.rhodot) == (1.0, 0.0)
    assert _rates(state, unit_params) == (0.0, 0.0, 0.0, 0.0)


def test_init_adiabatic_carries_frequency_drift(unit_params):
    from semiosc import frequency
    state = init_adiabatic(1.0, 1.0, unit_params)
    _, omegadot0 = frequency(1.0, 1.0, unit_params)
    Omega, Omegadot = state_effective_frequency(state, unit_params)
    assert Omegadot == pytest.approx(omegadot0, rel=1e-12)
    assert Omega > 0.0


def test_init_adiabatic_suppresses_startup_transient():
    # the whole point of the adiabatic start: on a slowly driven scenario the
    # measured discrepancy hugs its leading-order law, while a vacuum start
    # excites a width oscillation that shows up in the remainder
    from semiosc import max_abs_remainder
    params = ModelParams(m=1.0, e=0.05, hbar=0.01)
    base = ScenarioConfig(params=params, A0=1.0, Adot0=0.25, t_end=2.0,
                          dt=1e-3, sample_every=1, quantum_init="adiabatic")
    rem_adiabatic = max_abs_remainder(integrate(base).columns)
    rem_vacuum = max_abs_remainder(
        integrate(scenario_with(base, quantum_init="vacuum")).columns)
    assert rem_adiabatic * 5.0 < rem_vacuum


def test_init_adiabatic_reduces_to_vacuum_without_drive():
    params = ModelParams(m=1.0, e=0.0, hbar=1.0)
    sa = init_adiabatic(1.0, 1.0, params)
    sv = init_vacuum(1.0, 1.0, params)
    assert sa.quantum.rho == pytest.approx(sv.quantum.rho, rel=1e-15)
    assert sa.quantum.rhodot == 0.0


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivatives_decoupled_classical(decoupled_params):
    state = SemiState(0.0, 3.0, 0.7, PinneySector(1.0, 0.0))
    d = _rates(state, decoupled_params)
    assert d[0] == 0.7
    assert d[1] == 0.0  # no force at e = 0


def test_derivatives_moments_example(unit_params):
    # moments of the Omega = 2 vacuum, driven at omega = 1 (A = 0)
    state = SemiState(0.0, 0.0, 0.0, GaussianMoments(x2=0.25, p2=1.0, c=0.0))
    d = _rates(state, unit_params)
    assert d == (0.0, 0.0, 0.0, 0.75, 0.0)


def test_derivatives_mode_are_flat(unit_params):
    state = convert(init_vacuum(1.0, 0.0, unit_params), "mode", unit_params)
    f, fdot = state.quantum.f, state.quantum.fdot
    # the flat (Re f', Im f', Re f'', Im f'')
    d = _rates(state, unit_params)
    assert d[2:4] == (fdot.real, fdot.imag)
    omega2 = 1.0 + 1.0  # m^2 + e^2 A^2 at A = 1
    assert d[4:] == pytest.approx((-omega2 * f.real, -omega2 * f.imag),
                                  rel=1e-14)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_convert_example_chain(unit_params):
    state = SemiState(0.0, 0.0, 0.0, PinneySector(1.0, 0.0))
    mode = convert(state, "mode", unit_params)
    amp = math.sqrt(0.5)
    assert mode.quantum.f == pytest.approx(complex(amp, 0.0), rel=1e-15)
    assert mode.quantum.fdot == pytest.approx(complex(0.0, -amp), rel=1e-15)
    mom = convert(mode, "moments", unit_params)
    assert mom.quantum.x2 == pytest.approx(0.5, rel=1e-15)
    assert mom.quantum.p2 == pytest.approx(0.5, rel=1e-15)
    assert mom.quantum.c == pytest.approx(0.0, abs=1e-16)


@given(rho=st.floats(0.3, 3.0), rhodot=st.floats(-3.0, 3.0),
       hbar=st.floats(0.3, 3.0), A=st.floats(-2.0, 2.0), Adot=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_convert_round_trips(rho, rhodot, hbar, A, Adot):
    params = ModelParams(m=1.0, e=0.5, hbar=hbar)
    state = SemiState(0.0, A, Adot, PinneySector(rho, rhodot))
    for middle in ("mode", "moments"):
        back = convert(convert(state, middle, params), "pinney", params)
        assert back.quantum.rho == pytest.approx(rho, rel=1e-12)
        assert back.quantum.rhodot == pytest.approx(rhodot, rel=1e-12, abs=1e-12)
    via = convert(convert(state, "mode", params), "moments", params)
    direct = convert(state, "moments", params)
    assert via.quantum.x2 == pytest.approx(direct.quantum.x2, rel=1e-12)
    assert via.quantum.p2 == pytest.approx(direct.quantum.p2, rel=1e-12)
    assert via.quantum.c == pytest.approx(direct.quantum.c, rel=1e-12, abs=1e-14)


def test_convert_rejects_bad_wronskian(unit_params):
    bad = SemiState(0.0, 0.0, 0.0, ModeSector(complex(1.0, 0.0), complex(0.0, -0.3)))
    with pytest.raises(ValidationError):
        convert(bad, "pinney", unit_params)


def test_convert_rejects_impure_moments(unit_params):
    thermal = SemiState(0.0, 0.0, 0.0, GaussianMoments(x2=1.0, p2=1.0, c=0.0))
    with pytest.raises(ValidationError):
        convert(thermal, "pinney", unit_params)


def test_convert_unknown_target(unit_params):
    with pytest.raises(UsageError):
        convert(init_vacuum(0.0, 0.0, unit_params), "wigner", unit_params)


# ---------------------------------------------------------------------------
# integrate: exact limits
# ---------------------------------------------------------------------------

def test_free_motion_is_exact(decoupled_params):
    cfg = quick_config(decoupled_params, A0=0.0, Adot0=1.0, t_end=10.0)
    traj = integrate(cfg)
    assert traj.completed
    for r in traj.records:
        assert abs(r.A - r.t) <= 1e-12 * max(1.0, abs(r.t))
        assert r.N_ours == 0.0
        assert r.N_cdms == 0.0


def test_constant_frequency_width_oscillation(decoupled_params):
    # off-vacuum start at constant omega = 1: the width oscillates with
    # period pi and the shearless occupation is a constant of motion
    cfg = quick_config(decoupled_params, A0=0.0, Adot0=0.0, t_end=10.0,
                       quantum_init="explicit", rho0=1.2, rhodot0=0.0)
    traj = integrate(cfg)
    assert traj.completed
    n0 = 121.0 / 3600.0  # (1 - W)^2/(4 W) at W = 1/1.44
    for r in traj.records:
        x2_exact = 0.5 * ((1.2 * math.cos(r.t)) ** 2 + (math.sin(r.t) / 1.2) ** 2)
        assert r.x2 == pytest.approx(x2_exact, rel=1e-8)
        assert r.N_ours == pytest.approx(n0, abs=1e-8)
    # half the omega-period: the width returns after pi (nearest sample is
    # 1.6e-3 off the exact period, hence the loose tolerance)
    r_pi = min(traj.records, key=lambda r: abs(r.t - math.pi))
    assert r_pi.x2 == pytest.approx(traj.records[0].x2, rel=1e-5)


def test_quantum_sector_stationary_at_decoupled_vacuum(decoupled_params):
    cfg = quick_config(decoupled_params, A0=0.0, Adot0=1.0, t_end=5.0)
    traj = integrate(cfg)
    for r in traj.records:
        assert r.rho == 1.0
        assert r.rhodot == 0.0


# ---------------------------------------------------------------------------
# integrate: sampling, records, conservation
# ---------------------------------------------------------------------------

def test_sampling_grid(unit_params):
    cfg = quick_config(unit_params, t_end=1.0, dt=0.01, sample_every=10)
    traj = integrate(cfg)
    assert traj.completed
    assert len(traj.records) == 11
    assert traj.records[0].t == 0.0
    assert traj.records[-1].t == pytest.approx(1.0, abs=1e-15)
    assert [r.t for r in traj.records[:3]] == pytest.approx([0.0, 0.1, 0.2])


def test_record_columns_are_coherent(unit_params):
    cfg = quick_config(unit_params, t_end=3.0)
    for rep in ("pinney", "mode", "moments"):
        traj = integrate(scenario_with(cfg, representation=rep))
        assert traj.completed
        for r in traj.records:
            assert len(r) == len(COLUMNS)
            assert all(math.isfinite(v) for v in r)
            assert r.N_ours >= -1e-12 and r.N_cdms >= -1e-12
            assert r.x2 == pytest.approx(0.5 * r.rho ** 2, rel=1e-12)
            assert r.Omega == pytest.approx(1.0 / r.rho ** 2, rel=1e-12)
            purity = r.x2 * r.p2 - r.c ** 2
            assert purity == pytest.approx(0.25, rel=1e-9)
            assert r.Hx >= 0.5 * r.omega * (1.0 - 1e-9)
            assert r.Etot == pytest.approx(0.5 * r.Adot ** 2 + r.Hx, rel=1e-12)
            assert r.corr == pytest.approx(r.N_ours, rel=1e-12)  # hbar = e = m = 1


def test_energy_conservation_smoke(unit_params):
    from semiosc import energy_drift
    traj = integrate(quick_config(unit_params, t_end=20.0))
    assert energy_drift(traj.columns) <= 1e-9


def test_mode_wronskian_conserved(unit_params):
    cfg = quick_config(unit_params, t_end=100.0, representation="mode",
                       sample_every=100)
    traj = integrate(cfg)
    assert traj.completed
    # re-run the final record through the state machinery: purity of the
    # sampled moments bounds the Wronskian drift
    for r in traj.records:
        assert abs(r.x2 * r.p2 - r.c ** 2 - 0.25) / 0.25 <= 1e-9


def test_moments_purity_conserved(unit_params):
    cfg = quick_config(unit_params, t_end=100.0, representation="moments",
                       sample_every=100)
    traj = integrate(cfg)
    assert traj.completed
    for r in traj.records:
        assert abs(r.x2 * r.p2 - r.c ** 2 - 0.25) / 0.25 <= 1e-9


def test_mode_state_wronskian_directly(unit_params):
    from semiosc.dynamics import flat_from_state, make_rhs, rk4_step, state_from_flat
    cfg = quick_config(unit_params, t_end=50.0, representation="mode")
    y = flat_from_state(initial_state(cfg))
    rhs = make_rhs("mode", unit_params)
    n = round(cfg.t_end / cfg.dt)
    h = cfg.t_end / n
    worst = 0.0
    for i in range(n):
        y = rk4_step(rhs, i * h, y, h)
        if i % 500 == 0:
            state = state_from_flat((i + 1) * h, y, "mode")
            worst = max(worst, abs(mode_wronskian(state.quantum) - 1j))
    assert worst <= 1e-9


def test_representation_equivalence_smoke(unit_params):
    cfg = quick_config(unit_params, t_end=5.0, sample_every=100)
    runs = [integrate(scenario_with(cfg, representation=rep))
            for rep in ("pinney", "mode", "moments")]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for ra, rb in zip(runs[a].records, runs[b].records):
            assert ra.x2 == pytest.approx(rb.x2, rel=1e-9)


def test_adaptive_agrees_with_fixed_step(unit_params):
    cfg = quick_config(unit_params, t_end=10.0, sample_every=10 ** 9)
    fixed = integrate(cfg)
    adaptive = integrate(scenario_with(cfg, method="adaptive",
                                       rtol=1e-11, atol=1e-13))
    assert adaptive.completed
    fa, fb = adaptive.records[-1], fixed.records[-1]
    assert fa.t == fb.t == pytest.approx(10.0, abs=1e-12)
    assert fa.A == pytest.approx(fb.A, rel=1e-8, abs=1e-8)
    assert fa.x2 == pytest.approx(fb.x2, rel=1e-7)


def test_rk4_halving_shrinks_energy_drift(unit_params):
    from semiosc import energy_drift
    cfg = quick_config(unit_params, t_end=20.0, dt=2e-3)
    d1 = energy_drift(integrate(cfg).columns)
    d2 = energy_drift(integrate(scenario_with(cfg, dt=1e-3)).columns)
    assert 10.0 <= d1 / d2 <= 22.0


# ---------------------------------------------------------------------------
# run-level relations (metamorphic), every representation and method
# ---------------------------------------------------------------------------

LAYOUTS = [(rep, method) for rep in ("pinney", "mode", "moments")
           for method in ("rk4", "adaptive")]


@st.composite
def short_runs(draw, representation, method):
    """A completed one-second run on drawn couplings and start, sampled at
    every step."""
    params = ModelParams(m=draw(st.floats(0.5, 2.0)), e=draw(st.floats(0.0, 1.0)),
                         hbar=draw(st.floats(0.1, 2.0)))
    config = ScenarioConfig(
        params=params, A0=draw(st.floats(-1.5, 1.5)),
        Adot0=draw(st.floats(-1.5, 1.5)), t_end=1.0, dt=0.02, dt_init=0.02,
        sample_every=1, representation=representation, method=method,
        quantum_init=draw(st.sampled_from(("vacuum", "adiabatic"))))
    try:
        traj = integrate(config)
    except DomainError:  # an adiabatic start that is not slowly driven
        traj = None
    assume(traj is not None and traj.completed)
    return config, traj


@pytest.mark.parametrize("representation, method", LAYOUTS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_parity_negates_A_and_Adot_only(representation, method, data):
    # the equations hold A only through A^2, e^2 A x^2 and A Adot; rounding
    # is sign-symmetric, so the mirrored run is exact, not approximate
    config, traj = data.draw(short_runs(representation, method))
    mirror = integrate(scenario_with(config, A0=-config.A0,
                                     Adot0=-config.Adot0))
    assert mirror.completed
    for name in COLUMNS:
        sign = -1.0 if name in ("A", "Adot") else 1.0
        assert list(mirror.columns[name]) == \
            [sign * v for v in traj.columns[name]], name


@pytest.mark.parametrize("representation, method", LAYOUTS)
@given(data=st.data(), k=st.integers(2, 9))
@settings(max_examples=25, deadline=None)
def test_sampling_stride_selects_rows_of_every_step(representation, method,
                                                    data, k):
    # sampling never touches the step: a stride-k run's rows are the
    # stride-1 run's rows 0, k, 2k, ... and its last row
    config, traj = data.draw(short_runs(representation, method))
    strided = integrate(scenario_with(config, sample_every=k))
    rows = len(traj.columns["t"])
    keep = [*range(0, rows - 1, k), rows - 1]
    assert strided.completed
    for name in COLUMNS:
        assert list(strided.columns[name]) == \
            [traj.columns[name][i] for i in keep], name


# Criterion 4 over drawn configs.  The three representations are exact
# rewrites of one flow, so their <x^2> columns differ by round-off and by the
# different rk4 truncation errors of the three flows.  A gap at the
# criterion's own tolerance passes; a larger one must be truncation error,
# which falls 16x per halving of dt in fourth order, so it must fall at
# least 8x from dt to dt/2.
AGREEMENT_FLOOR = 1e-8
AGREEMENT_SHRINK = 8.0


def _x2_gap(config):
    """Largest relative gap between the x2 columns of pinney, mode and
    moments runs of config; None when the runs do not all complete.

    The runs end alike, but for one case: a width that bounces off a
    minimum too narrow for the step.  rk4 can step the pinney width through
    zero there, and that run stops at its floor, while the mode and moments
    flows, which are linear and have no singular point, step on."""
    runs = [integrate(scenario_with(config, representation=rep))
            for rep in ("pinney", "mode", "moments")]
    pinney, mode, moments = runs
    assert mode.status == moments.status, [r.status for r in runs]
    if pinney.status != mode.status:
        assert mode.completed, mode.abort_reason
        assert pinney.status == "aborted-singularity", pinney.abort_reason
        assert "fell to the floor" in pinney.abort_reason, pinney.abort_reason
        return None
    if not pinney.completed:
        return None
    columns = [run.columns["x2"] for run in runs]
    return max(abs(a - b) / abs(a) for i, xa in enumerate(columns)
               for xb in columns[i + 1:] for a, b in zip(xa, xb))


@given(m=st.floats(0.5, 2.0), e=st.floats(0.0, 2.0), hbar=st.floats(0.01, 2.0),
       A0=st.floats(-3.0, 3.0), Adot0=st.floats(-3.0, 3.0),
       quantum_init=st.sampled_from(("vacuum", "adiabatic")))
@example(m=1.0136647484778445, e=1.6757372360613112, hbar=0.2449535393741133,
         A0=1.15582162913776, Adot0=-2.428614904490181,
         quantum_init="adiabatic")  # gap 9.8e-7 at dt, 6.2e-8 at dt/2
# rho0 = 16.5, rhodot0 = -364: the width bounces at 0.0033 near t = 0.045,
# which rk4 at dt = 1e-3 steps through zero in pinney; mode and moments
# complete
@example(m=0.5, e=0.375, hbar=1.0, A0=0.375, Adot0=1.59375,
         quantum_init="adiabatic")
@settings(max_examples=50, deadline=None)
def test_representations_agree_on_x2_or_converge_together(m, e, hbar, A0,
                                                          Adot0, quantum_init):
    config = ScenarioConfig(params=ModelParams(m=m, e=e, hbar=hbar), A0=A0,
                            Adot0=Adot0, t_end=5.0, dt=1e-3, sample_every=100,
                            quantum_init=quantum_init)
    try:
        gap = _x2_gap(config)
    except DomainError:  # an adiabatic start that is not slowly driven
        gap = None
    assume(gap is not None)
    if gap <= AGREEMENT_FLOOR:
        return
    half = _x2_gap(scenario_with(config, dt=5e-4, sample_every=200))
    event("above the floor: truncation")
    assert half is not None and half * AGREEMENT_SHRINK <= gap, (gap, half)


# ---------------------------------------------------------------------------
# aborts
# ---------------------------------------------------------------------------

def test_singularity_abort_keeps_partial_results(unit_params):
    cfg = ScenarioConfig(params=unit_params, A0=0.0, Adot0=0.0, t_end=5.0,
                         dt=1e-3, sample_every=1, quantum_init="explicit",
                         rho0=0.6, rhodot0=-2.0, rho_min=0.5)
    traj = integrate(cfg)
    assert traj.status == "aborted-singularity"
    assert not traj.completed
    assert traj.abort_time is not None and traj.abort_time < 5.0
    assert "rho" in traj.abort_reason
    assert len(traj.records) >= 2
    assert traj.records[-1].t < 5.0


def test_step_underflow_abort(unit_params):
    cfg = quick_config(unit_params, t_end=1.0, method="adaptive",
                       rtol=1e-300, atol=1e-300)
    traj = integrate(cfg)
    assert traj.status == "aborted-stepfail"
    assert "underflow" in traj.abort_reason
    assert len(traj.records) == 1  # the initial state survives


def test_rk4_step_count_bound(unit_params, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_RK4_STEPS", 5000)
    quick_config(unit_params)  # exactly the bound: 5000 steps
    with pytest.raises(UsageError, match=r"dt = 0\.0005 makes 10000 steps"):
        quick_config(unit_params, dt=5e-4)
    quick_config(unit_params, dt=5e-4, method="adaptive")  # dt is no step here


def test_adaptive_step_attempt_bound(unit_params, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEP_ATTEMPTS", 40)
    traj = integrate(quick_config(unit_params, method="adaptive",
                                  sample_every=1))
    assert traj.status == "aborted-stepfail"
    assert traj.abort_reason.startswith("40 step attempts")
    assert len(traj.records) >= 2
    assert traj.records[-1].t == traj.abort_time < 5.0


def test_non_finite_start_is_rejected_naming_the_start(decoupled_params):
    # every start value is finite, but Etot = Adot0^2 / 2 overflows
    cfg = ScenarioConfig(params=decoupled_params, A0=0.0, Adot0=1e200,
                         t_end=2.0, dt=0.1)
    with pytest.raises(DomainError, match=r"A0 = 0\.0, Adot0 = 1e\+200: .*Etot = inf"):
        integrate(cfg)


def test_start_dividing_by_zero_is_rejected_naming_the_start():
    # m^2 + (e A0)^2 underflows to 0, so omega(A0) = 0
    params = ModelParams(m=1e-320, e=1.0, hbar=1.0)
    cfg = ScenarioConfig(params=params, A0=1e-320, Adot0=1.0, t_end=1.0)
    with pytest.raises(DomainError, match="A0 = 1e-320, Adot0 = 1.0"):
        integrate(cfg)



@pytest.mark.parametrize("params, init, named, why", [
    # m * m overflows: omega = inf and the vacuum width omega ** -0.5 = 0
    (dict(m=1e308, e=1.0, hbar=1.0), {},
     "m = 1e+308, e = 1.0, hbar = 1.0, A0 = 1.0, Adot0 = 1.0: ",
     "pinney width rho must be positive, got 0.0"),
    # an OverflowError reads as the one out-of-range wording, not as its
    # errno tuple
    (dict(m=1.0, e=1e308, hbar=1.0), {},
     "m = 1.0, e = 1e+308, hbar = 1.0, A0 = 1.0, Adot0 = 1.0: ",
     dynamics.OUT_OF_RANGE),
    (dict(m=1.0, e=1.0, hbar=1e308), {},
     "m = 1.0, e = 1.0, hbar = 1e+308, A0 = 1.0, Adot0 = 1.0: ",
     dynamics.OUT_OF_RANGE),
    (dict(m=1e308, e=1.0, hbar=1.0),
     dict(quantum_init="explicit", rho0=1.0, rhodot0=0.0),
     "m = 1e+308, e = 1.0, hbar = 1.0, A0 = 1.0, Adot0 = 1.0, rho0 = 1.0, "
     "rhodot0 = 0.0: ",
     "basis frequency W must be positive, got inf"),
])
def test_start_error_names_every_key_of_the_start(params, init, named, why):
    cfg = ScenarioConfig(params=ModelParams(**params), A0=1.0, Adot0=1.0,
                         t_end=1.0, dt=0.01, **init)
    with pytest.raises(DomainError) as exc:
        integrate(cfg)
    assert str(exc.value) == (
        named + f"the initial state is not representable ({why})")
    with pytest.raises(DomainError) as again:
        dynamics.checked_start(cfg)
    assert str(again.value) == str(exc.value)

def test_guards_abort_non_finite_and_collapsed_states(unit_params):
    pinney = dynamics.make_guard("pinney", unit_params, 1e-8)
    assert pinney(1.0, (1.0, math.nan, 1.0, 0.0)) == (
        "aborted-stepfail", 1.0, "non-finite state component at t=1.0")
    mode = dynamics.make_guard("mode", unit_params, 1e-8)
    assert mode(2.0, (1.0, 1.0, math.inf, 0.0, 0.0, 1.0)) == (
        "aborted-stepfail", 2.0, "non-finite state component at t=2.0")
    # |f|^2 = 1e-18 is under the floor hbar rho_min^2 / 2 = 5e-17
    assert mode(3.0, (1.0, 1.0, 1e-9, 0.0, 0.0, 1.0)) == (
        "aborted-singularity", 3.0, "<x^2> fell to the width floor at t=3.0")
    assert mode(3.0, (1.0, 1.0, 1.0, 0.0, 0.0, 1.0)) is None
    # every layout at rho_min = 0.5 (x2_floor = hbar rho_min^2 / 2 = 0.125):
    # a state with its width exactly at the floor, its reason, and the same
    # state with its width just above.  augmented's x2 (component 2) is
    # under the floor: its guard reads the pinney width, component 5.
    nxt = math.nextafter
    for layout, y, reason, above in [
        ("pinney", (1.0, 1.0, 0.5, 0.0),
         "rho = 0.5 fell to the floor 0.5 at t=4.0",
         (1.0, 1.0, nxt(0.5, 1.0), 0.0)),
        ("mode", (1.0, 1.0, 0.25, 0.25, 0.0, 2.0),
         "<x^2> fell to the width floor at t=4.0",
         (1.0, 1.0, 0.25, nxt(0.25, 1.0), 0.0, 2.0)),
        ("moments", (1.0, 1.0, 0.125, 0.0, 2.0),
         "<x^2> fell to the width floor at t=4.0",
         (1.0, 1.0, nxt(0.125, 1.0), 0.0, 2.0)),
        ("augmented", (1.0, 1.0, 0.01, 0.0, 25.0, 0.5, 0.0),
         "rho = 0.5 fell to the floor 0.5 at t=4.0",
         (1.0, 1.0, 0.01, 0.0, 25.0, nxt(0.5, 1.0), 0.0)),
    ]:
        guard = dynamics.make_guard(layout, unit_params, 0.5)
        for index in (0, len(y) - 1):
            for bad in (math.nan, math.inf, -math.inf):
                assert guard(4.0, y[:index] + (bad,) + y[index + 1:]) == (
                    "aborted-stepfail", 4.0,
                    "non-finite state component at t=4.0"), (layout, index)
        assert guard(4.0, y) == ("aborted-singularity", 4.0, reason), layout
        assert guard(4.0, above) is None, layout


def _failing_after(n, value):
    """A step that returns `value` n times, then divides by zero."""
    calls = []

    def step(t, y, h):
        calls.append(t)
        if len(calls) > n:
            raise ZeroDivisionError("float division by zero")
        return value
    return step


def test_drivers_stop_on_a_singular_step():
    y, abort = run_fixed(_failing_after(2, (1.0,)), (0.0,), 0.5, 4)
    assert y == (1.0,)
    assert abort == ("aborted-singularity", 1.0,
                     "singular right-hand side evaluation")
    y, abort = run_adaptive(
        _failing_after(1, ((1.0,), (0.0,))), (0.0,), 4.0, 0.5, 1e-9, 1e-9, 1,
        lambda t, y: None, lambda t, y: None)
    assert y == (1.0,)
    assert abort == ("aborted-singularity", 0.5,
                     "singular right-hand side evaluation")


def test_drivers_stop_when_a_sample_is_refused():
    samples = []

    def on_sample(t, y):
        samples.append(t)
        return ("aborted-stepfail", t, "refused") if len(samples) == 2 else None

    def step(t, y, h):
        return (y[0] + h,)

    y, abort = run_fixed(step, (0.0,), 0.25, 8, 2, None, on_sample)
    assert samples == [0.5, 1.0]
    assert y == (1.0,) and abort == ("aborted-stepfail", 1.0, "refused")
    samples.clear()
    y, abort = run_adaptive(
        lambda t, y, h: (step(t, y, h), (0.0,)), (0.0,), 4.0, 0.25, 1e-9, 1e-9,
        1, lambda t, y: None, on_sample)
    # an exact step grows the next fivefold: t = 0.25, then 1.5
    assert samples == [0.25, 1.5]
    assert y == (1.5,) and abort == ("aborted-stepfail", 1.5, "refused")


@pytest.mark.parametrize("y5, err", [((math.nan,), (0.0,)),
                                     ((0.0,), (math.nan,))])
def test_adaptive_loop_rejects_a_non_finite_step(y5, err):
    # each attempt is rejected and shrinks h fivefold (0.1, 0.02, 0.004,
    # ...); the 19th falls below 1e-14 and the run stops where it started
    hs = []

    def step(t, y, h):
        hs.append(h)
        return y5, err

    y, abort = run_adaptive(step, (0.0,), 1.0, 0.1, 1e-9, 1e-9, 1,
                            lambda t, y: None, lambda t, y: None)
    assert y == (0.0,)
    assert abort == ("aborted-stepfail", 0.0, "step size underflow at t=0.0")
    assert len(hs) == 19
    assert hs[:3] == pytest.approx([0.1, 0.02, 0.004])


def test_config_validation():
    params = ModelParams(m=1.0, e=1.0, hbar=1.0)
    for changes, message in [
        ({"t_end": -1.0}, "t_end must be positive, got -1.0"),
        ({"representation": "heisenberg"}, "unknown representation 'heisenberg'"),
        ({"method": "euler"}, "unknown method 'euler'"),
        ({"quantum_init": "thermal"}, "unknown quantum_init 'thermal'"),
        ({"quantum_init": "explicit"},  # rho0 missing
         "explicit quantum_init requires rho0 and rhodot0"),
        ({"sample_every": 0}, "sample_every must be >= 1, got 0"),
        ({"sample_every": 2.5}, "sample_every must be an integer, got 2.5"),
        ({"sample_every": 10.0}, "sample_every must be an integer, got 10.0"),
    ]:
        with pytest.raises(UsageError) as err:
            ScenarioConfig(params=params, **{"A0": 0.0, "Adot0": 0.0,
                                             "t_end": 1.0, **changes})
        assert str(err.value) == message



_PARAMS = ModelParams(m=1.0, e=1.0)
_CONFIG = ScenarioConfig(params=_PARAMS, A0=0.0, Adot0=0.0, t_end=1.0)
# (a valid record, changes that break it, the message of its check)
RECORD_CHECKS = [
    (_PARAMS, {"m": 0.0}, "m must be positive and finite, got 0.0"),
    (_PARAMS, {"e": -0.1}, "e must be nonnegative and finite, got -0.1"),
    (_PARAMS, {"hbar": math.inf}, "hbar must be positive and finite, got inf"),
    (GaussianMoments(x2=0.5, p2=0.5, c=0.0), {"x2": -0.1},
     "<x^2> must be positive, got -0.1"),
    (GaussianMoments(x2=0.5, p2=0.5, c=0.0), {"p2": 0.0},
     "<p^2> must be positive, got 0.0"),
    (OscBasis(W=1.0), {"W": 0.0}, "basis frequency W must be positive, got 0.0"),
    (PinneySector(1.0, 0.0), {"rho": -1.0},
     "pinney width rho must be positive, got -1.0"),
    (_CONFIG, {"dt": -1.0}, "dt must be positive, got -1.0"),
    (_CONFIG, {"method": "euler"}, "unknown method 'euler'"),
    (_CONFIG, {"dt": 0.3}, "dt = 0.3 does not divide t_end = 1.0 into whole steps"),
]


@pytest.mark.parametrize("record, changes, message", RECORD_CHECKS, ids=[
    f"{type(record).__name__}-{key}" for record, changes, _ in RECORD_CHECKS
    for key in changes])
def test_every_construction_path_runs_the_record_checks(record, changes,
                                                        message):
    # the named tuples' _make and _replace build through the constructor
    fields = {**record._asdict(), **changes}
    paths = [lambda: type(record)(**fields),
             lambda: type(record)._make(fields.values()),
             lambda: record._replace(**changes)]
    if record is _CONFIG:
        paths.append(lambda: scenario_with(record, **changes))
    if record is _PARAMS:
        paths.append(lambda: scenario_with(_CONFIG, **changes))
    error = UsageError if record is _CONFIG else DomainError
    for path in paths:
        with pytest.raises(error) as err:
            path()
        assert str(err.value) == message

def test_initial_state_matches_requested_representation(unit_params):
    for rep in ("pinney", "mode", "moments"):
        cfg = quick_config(unit_params, representation=rep)
        assert initial_state(cfg).representation == rep


def test_record_observables_roundtrip(unit_params):
    state = init_vacuum(1.0, 1.0, unit_params)
    r = record_observables(state, unit_params)
    assert r.t == 0.0 and r.A == 1.0 and r.Adot == 1.0
    assert r.N_ours == 0.0
    assert r.N_cdms == pytest.approx(1.0 / 128.0, abs=1e-12)
    assert r.dN_leading == pytest.approx(1.0 / 16.0, rel=1e-15)
