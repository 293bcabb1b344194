"""The flat hot path against its specification.

The fused pinney rk4 run (make_rk4_run) must reproduce run_fixed on
rk4_on(make_rhs) and make_guard bit for bit: its states, its abort and every
sample it hands over.  The unrolled mode Fehlberg step must reproduce
rkf45_step on make_rhs bit for bit, and the flat observable rows must
reproduce record_observables bit for bit, raising on exactly the states
where the oracle raises.
"""

import dataclasses
import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from semiosc import (
    ModelParams,
    PinneySector,
    SemiState,
    convert,
    convergence_order,
    integrate,
    load_scenario,
    record_observables,
)
from semiosc.dynamics import (
    flat_from_state,
    make_guard,
    make_rhs,
    make_rk4_run,
    make_rkf45_step,
    make_row,
    rk4_on,
    rkf45_step,
    run_fixed,
    sampler,
    state_from_flat,
)

WIDTHS = {"pinney": 4, "mode": 6, "moments": 5}

params_st = st.builds(ModelParams, m=st.floats(0.5, 2.0), e=st.floats(0.0, 2.0),
                      hbar=st.floats(0.01, 2.0))


def _bits(values):
    """Exact identity of a float sequence (distinguishes -0.0, keeps nan)."""
    return tuple(float(v).hex() for v in values)


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # the exception itself is the compared outcome
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# fused pinney rk4 run
# ---------------------------------------------------------------------------

# Pinney components: ordinary ones and amplitudes whose squares overflow, so
# that runs carry inf and nan; widths also at or near zero, where 1 / rho^3
# divides by zero (rho^3 underflows below about 1.7e-108).
pinney_component = st.one_of(st.floats(-3.0, 3.0),
                             st.sampled_from([1e100, -1e160, 1e200, -1e300]))
pinney_width = st.one_of(st.floats(0.3, 3.0),
                         st.sampled_from([0.0, -0.0, 1e-110, 1e-300, 1e-40,
                                          0.05, 1e200]))


def _run_outcome(run, y, h, n, sample_every, t0, refuse):
    """Bits of (final y, abort, every (t, y) sampled); the refuse-th sample
    is refused (0: none is)."""
    seen = []

    def on_sample(t, y):
        seen.append((t.hex(), _bits(y)))
        if len(seen) == refuse:
            return "refused", f"sample {refuse}"
        return None

    y, abort = run(y, h, n, sample_every, on_sample, t0)
    if abort is not None:
        abort = (abort[0], abort[1].hex(), abort[2])
    return _bits(y), abort, seen


@given(params=params_st,
       y=st.tuples(pinney_component, pinney_component, pinney_width,
                   pinney_component),
       h=st.floats(1e-4, 0.5), n=st.integers(1, 400),
       sample_every=st.integers(1, 30),
       t0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
       refuse=st.integers(0, 12),
       rho_min=st.one_of(st.none(), st.floats(1e-8, 1.0)))
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0), y=(1.0, 1.0, 1e-110, 0.0),
         h=0.01, n=10, sample_every=3, t0=2.5, refuse=0, rho_min=None)
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0), y=(1e200, 1.0, 1.0, 0.0),
         h=0.01, n=10, sample_every=3, t0=0.0, refuse=0, rho_min=1e-8)
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0), y=(0.0, 0.0, 0.6, -2.0),
         h=0.01, n=100, sample_every=7, t0=1.0, refuse=0, rho_min=0.5)
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0), y=(1.0, 1.0, 1.0, 0.0),
         h=0.01, n=1000, sample_every=7, t0=0.0, refuse=0, rho_min=1e-8)
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0), y=(0.0, 0.0, 1.0, 0.0),
         h=0.01, n=5, sample_every=1, t0=0.0, refuse=0, rho_min=1.0)  # at rest
@settings(max_examples=80, deadline=None)
def test_fused_pinney_run_matches_run_fixed(params, y, h, n, sample_every, t0,
                                            refuse, rho_min):
    if rho_min is None:
        fused = make_rk4_run("pinney", params)
        guard = None
    else:
        fused = make_rk4_run("pinney", params, rho_min)
        guard = make_guard("pinney", params, rho_min)
    step = rk4_on(make_rhs("pinney", params))

    def oracle(y, h, n, sample_every, on_sample, t0):
        return run_fixed(step, y, h, n, sample_every, guard, on_sample, t0)

    outcome = _run_outcome(fused, y, h, n, sample_every, t0, refuse)
    assert outcome == _run_outcome(oracle, y, h, n, sample_every, t0, refuse)
    event("completed" if outcome[1] is None else f"{outcome[1][0]}: "
          f"{outcome[1][2].split(' ')[0]}")


# Mode components: ordinary ones, and amplitudes whose squares overflow, so
# that chained steps also carry inf and nan.
mode_component = st.one_of(st.floats(-3.0, 3.0),
                           st.sampled_from([1e100, -1e160, 1e200, -1e300]))


@given(params=params_st, y=st.tuples(*[mode_component] * 6),
       h=st.floats(1e-4, 1.0))
@example(params=ModelParams(m=1.0, e=1.0, hbar=1.0),
         y=(1e200, -1e160, 1.0, 1e100, 0.5, -1e300), h=1.0)
@settings(max_examples=60, deadline=None)
def test_unrolled_rkf45_matches_rkf45_step(params, y, h):
    rhs = make_rhs("mode", params)
    step = make_rkf45_step("mode", params)
    oracle = y
    for i in range(300):
        y5, err = step(i * h, y, h)
        o5, oerr = rkf45_step(rhs, i * h, oracle, h)
        assert (_bits(y5), _bits(err)) == (_bits(o5), _bits(oerr)), f"step {i}"
        y, oracle = y5, o5


# ---------------------------------------------------------------------------
# flat observable rows
# ---------------------------------------------------------------------------

def _oracle_row(t, y, representation, params):
    return record_observables(state_from_flat(t, y, representation),
                              params).as_row()


@given(representation=st.sampled_from(("pinney", "mode", "moments")),
       params=params_st, t=st.floats(0.0, 100.0),
       A=st.floats(-3.0, 3.0), Adot=st.floats(-3.0, 3.0),
       rho=st.floats(0.2, 5.0), rhodot=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_flat_row_matches_record_observables(representation, params, t, A, Adot,
                                             rho, rhodot):
    state = convert(SemiState(t, A, Adot, PinneySector(rho, rhodot)),
                    representation, params)
    y = flat_from_state(state)
    assert _bits(make_row(representation, params)(t, y)) == \
        _bits(_oracle_row(t, y, representation, params))


# Components that break some kernel: nonpositive widths, non-finite values,
# and magnitudes where squares and cubes overflow or underflow.
bad_component = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e200,
                     -1e200, 1e155, 1e120, 1e-120, 1e-170, 1e-200, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(data=st.data(), representation=st.sampled_from(("pinney", "mode", "moments")),
       params=params_st)
@settings(max_examples=600, deadline=None)
def test_flat_row_raises_exactly_when_oracle_raises(data, representation, params):
    y = tuple(data.draw(bad_component) for _ in range(WIDTHS[representation]))
    fast = _outcome(make_row(representation, params), 1.5, y)
    slow = _outcome(_oracle_row, 1.5, y, representation, params)
    assert fast == slow


def test_flat_row_rejects_huge_amplitude_like_oracle(unit_params):
    y = (1e200, 1.0, 1.0, 0.0)
    fast = _outcome(make_row("pinney", unit_params), 0.0, y)
    assert fast[0] is OverflowError
    assert fast == _outcome(_oracle_row, 0.0, y, "pinney", unit_params)


def test_sampling_overflow_is_a_step_failure(unit_params):
    rows = []
    on_sample = sampler(make_row("pinney", unit_params), rows.append)
    status, reason = on_sample(1.0, (1e200, 1.0, 1.0, 0.0))
    assert status == "aborted-stepfail"
    assert reason == ("observables not representable: "
                      "overflow: Numerical result out of range")
    assert rows == []
    assert on_sample(1.0, (1.0, 1.0, 1.0, 0.0)) is None
    assert len(rows) == 1


def test_sampling_an_invalid_state_is_a_step_failure(unit_params):
    rows = []
    on_sample = sampler(make_row("moments", unit_params), rows.append)
    assert on_sample(1.0, (1.0, 1.0, -1.0, 0.0, 1.0)) == (
        "aborted-stepfail",
        "state failed validation: <x^2> must be positive, got -1.0")
    assert rows == []


# ---------------------------------------------------------------------------
# convergence order from final samples only
# ---------------------------------------------------------------------------

def test_convergence_order_matches_full_integrate_runs():
    config = dataclasses.replace(load_scenario("vacuum-kick"), t_end=4.0,
                                 representation="mode")
    dts = (0.004, 0.002, 0.001)  # the ladder of dt = 0.004
    finals = []
    for dt in dts:
        r = integrate(dataclasses.replace(config, dt=dt)).records[-1]
        finals.append((r.A, r.Adot, r.rho, r.rhodot))
    diffs = [math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
             for a, b in zip(finals, finals[1:])]
    orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
    assert (convergence_order(dataclasses.replace(config, dt=0.004))
            == sum(orders) / len(orders))
