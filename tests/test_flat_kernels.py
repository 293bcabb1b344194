"""The flat hot path against its specification.

make_rhs, every rk4 run of make_rk4_run and every Fehlberg step of
make_rkf45_step are generated from one equation table (dynamics.LAYOUTS).
Each generated run must reproduce run_fixed on partial(rk4_step, make_rhs)
and make_guard bit for bit, from any grid step i0: its states, its abort
and every sample it hands over; each generated Fehlberg step must reproduce
rkf45_step on make_rhs bit for bit; the augmented right-hand side must be
the moments flow and the pinney width flow.  The row writers of
make_row_writer must append record_observables' row bit for bit, and abort,
appending nothing, on exactly the states where the oracle raises.  A writer
hands every state outside the kernels' domain to record_observables itself,
and no valid run does so after its start row.
"""

import dataclasses
import math
import re
import traceback
from array import array
from functools import partial

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from semiosc import (
    ModelParams,
    PinneySector,
    SemiState,
    SemiquantumError,
    UsageError,
    bundled_scenario_names,
    convert,
    convergence_order,
    integrate,
    load_scenario,
    record_observables,
)
from semiosc import dynamics
from semiosc.dynamics import (
    METHODS,
    REPRESENTATIONS,
    flat_from_state,
    make_guard,
    make_rhs,
    make_rk4_run,
    make_rkf45_step,
    make_row_writer,
    rk4_step,
    rkf45_step,
    run_fixed,
    state_from_flat,
)

WIDTHS = {"pinney": 4, "mode": 6, "moments": 5, "augmented": 7}
# the components each layout's width-floor test reads
FLOOR_INDEX = {"pinney": (2,), "mode": (2, 3), "moments": (2,),
               "augmented": (5,)}

params_st = st.builds(ModelParams, m=st.floats(0.5, 2.0), e=st.floats(0.0, 2.0),
                      hbar=st.floats(0.01, 2.0))
UNIT = ModelParams(m=1.0, e=1.0, hbar=1.0)


def _bits(values):
    """Exact identity of a float sequence (distinguishes -0.0, keeps nan)."""
    return tuple(float(v).hex() for v in values)


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:  # the exception itself is the compared outcome
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# generated rk4 runs and Fehlberg steps
# ---------------------------------------------------------------------------

# Components: ordinary ones and amplitudes whose squares overflow, so that
# runs carry inf and nan.  Floor components (widths, |f|, <x^2>) also at or
# near zero, where 1 / rho^3 divides by zero (rho^3 underflows below about
# 1.7e-108) and the width floor fires.
component = st.one_of(st.floats(-3.0, 3.0),
                      st.sampled_from([1e100, -1e160, 1e200, -1e300]))
floor_component = st.one_of(st.floats(0.3, 3.0),
                            st.sampled_from([0.0, -0.0, 1e-110, 1e-300, 1e-40,
                                             0.05, 1e200]))


def _state(representation, y, w):
    """The layout's state: y's leading components, floor components from w."""
    state = list(y[:WIDTHS[representation]])
    for i, index in enumerate(FLOOR_INDEX[representation]):
        state[index] = w[i]
    return tuple(state)


def _run_outcome(run, y, h, n, sample_every, i0, refuse):
    """Bits of (final y, abort, every (t, y) sampled); the refuse-th sample
    is refused (0: none is)."""
    seen = []

    def on_sample(t, y):
        seen.append((t.hex(), _bits(y)))
        if len(seen) == refuse:
            return "refused", t, f"sample {refuse}"
        return None

    y, abort = run(y, h, n, sample_every, on_sample, i0)
    if abort is not None:
        abort = (abort[0], abort[1].hex(), abort[2])
    return _bits(y), abort, seen


@pytest.mark.parametrize("representation", list(WIDTHS))
@given(params=params_st, y=st.tuples(*[component] * 7),
       w=st.tuples(floor_component, floor_component),
       h=st.floats(1e-4, 0.5), n=st.integers(1, 400),
       sample_every=st.integers(1, 30),
       i0=st.one_of(st.just(0), st.integers(0, 10 ** 6)),
       refuse=st.integers(0, 12),
       rho_min=st.floats(1e-8, 1.0))
# a width whose cube underflows: the first stage raises before the guard runs
@example(params=UNIT, y=(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0), w=(1e-110, 1e-110),
         h=0.01, n=10, sample_every=3, i0=250, refuse=0, rho_min=1e-8)
@example(params=UNIT, y=(1e200, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0), w=(1.0, 1.0),
         h=0.01, n=10, sample_every=3, i0=0, refuse=0, rho_min=1e-8)
@example(params=UNIT, y=(0.0, 0.0, 0.0, -2.0, 0.5, 0.0, -2.0), w=(0.6, 0.6),
         h=0.01, n=100, sample_every=7, i0=100, refuse=0, rho_min=0.5)
@example(params=UNIT, y=(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0), w=(1.0, 0.0),
         h=0.01, n=1000, sample_every=7, i0=0, refuse=0, rho_min=1e-8)
@example(params=UNIT, y=(0.0, 0.0, 0.0, 0.0, -2.0, -2.0, 0.0), w=(0.6, 0.6),
         h=0.01, n=100, sample_every=7, i0=0, refuse=0, rho_min=0.5)
@example(params=UNIT, y=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), w=(1.0, 0.0),
         h=0.01, n=5, sample_every=1, i0=0, refuse=0, rho_min=1.0)  # at rest
@example(params=UNIT, y=(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0), w=(1.0, 0.5),
         h=0.01, n=50, sample_every=4, i0=0, refuse=3, rho_min=1e-8)
@settings(max_examples=80, deadline=None)
def test_generated_rk4_run_matches_run_fixed(representation, params, y, w, h,
                                             n, sample_every, i0, refuse,
                                             rho_min):
    y = _state(representation, y, w)
    run = make_rk4_run(representation, params, rho_min)
    guard = make_guard(representation, params, rho_min)
    step = partial(rk4_step, make_rhs(representation, params))

    def oracle(y, h, n, sample_every, on_sample, i0):
        return run_fixed(step, y, h, n, sample_every, guard, on_sample, i0)

    outcome = _run_outcome(run, y, h, n, sample_every, i0, refuse)
    assert outcome == _run_outcome(oracle, y, h, n, sample_every, i0, refuse)
    event("completed" if outcome[1] is None else f"{outcome[1][0]}: "
          f"{outcome[1][2].split(' ')[0]}")


def _step_outcome(step, t, y, h):
    """(y5, bits of y5 and err), or (None, the exception) if the step raises."""
    try:
        y5, err = step(t, y, h)
    except ArithmeticError as exc:
        return None, (type(exc), str(exc))
    return y5, (_bits(y5), _bits(err))


@pytest.mark.parametrize("representation", list(WIDTHS))
@given(params=params_st, y=st.tuples(*[component] * 7),
       w=st.tuples(floor_component, floor_component), h=st.floats(1e-4, 1.0))
@example(params=UNIT, y=(1e200, -1e160, 1.0, 1e100, 0.5, -1e300, 1.0),
         w=(1.0, 1e100), h=1.0)
@example(params=UNIT, y=(1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0), w=(1e-110, 0.0),
         h=0.01)
@settings(max_examples=60, deadline=None)
def test_generated_rkf45_matches_rkf45_step(representation, params, y, w, h):
    step = make_rkf45_step(representation, params)
    oracle = partial(rkf45_step, make_rhs(representation, params))
    y = z = _state(representation, y, w)
    for i in range(300):
        y, outcome = _step_outcome(step, i * h, y, h)
        z, expected = _step_outcome(oracle, i * h, z, h)
        assert outcome == expected, f"step {i}"
        if y is None:
            break


@given(params=params_st, y=st.tuples(*[component] * 7),
       w=st.tuples(floor_component, floor_component))
@settings(max_examples=200, deadline=None)
def test_augmented_rhs_is_the_moments_and_pinney_width_flows(params, y, w):
    y = _state("augmented", y, w)
    moments, pinney = make_rhs("moments", params), make_rhs("pinney", params)

    def composed(t, y):
        return moments(t, y[:5]) + pinney(t, (y[0], y[1], y[5], y[6]))[2:]

    assert _outcome(make_rhs("augmented", params), 0.5, y) == \
        _outcome(composed, 0.5, y)


@pytest.mark.parametrize("make", [
    make_rhs, pytest.param(partial(make_rk4_run, rho_min=1e-8),
                           id="make_rk4_run"), make_rkf45_step,
    pytest.param(partial(make_row_writer, rows=array("d")),
                 id="make_row_writer")])
@pytest.mark.parametrize("name", ["bogus", "Pinney", ""])
def test_unknown_layout_is_a_usage_error(make, name, unit_params):
    with pytest.raises(UsageError,
                       match=re.escape(f"unknown representation {name!r}")):
        make(name, unit_params)


def test_generated_run_traceback_shows_its_source_line(unit_params):
    def on_sample(t, y):
        raise RuntimeError("sink failed")

    run = make_rk4_run("mode", unit_params, 1e-8)
    with pytest.raises(RuntimeError) as info:
        run((1.0, 0.0, 0.7, 0.0, 0.0, -0.7), 0.01, 3, 1, on_sample)
    line = "hit = on_sample(t, (A, Ad, fr, fi, gr, gi))"
    frames = [frame for frame in traceback.extract_tb(info.tb)
              if frame.filename == "<semiosc.dynamics rk4 mode>"]
    assert [frame.line for frame in frames] == [line]
    assert line in "".join(traceback.format_exception(info.value))


# ---------------------------------------------------------------------------
# sampled-row writers
# ---------------------------------------------------------------------------

def _oracle_row(t, y, representation, params):
    return record_observables(state_from_flat(t, y, representation), params)


def _write_outcome(representation, params, t, y):
    """(abort, bits of every value written) of one fresh writer's call."""
    rows = array("d")
    try:
        abort = make_row_writer(representation, params, rows)(t, y)
    except Exception as exc:  # the exception itself is the compared outcome
        abort = type(exc), str(exc)
    return abort, _bits(rows)


def _oracle_outcome(representation, params, t, y):
    """_write_outcome of the oracle: its row, or the step failure that its
    exception maps to (a SemiquantumError is a state that failed
    validation, an ArithmeticError one whose observables are not
    representable)."""
    try:
        row = _oracle_row(t, y, representation, params)
    except SemiquantumError as exc:
        return ("aborted-stepfail", t, f"state failed validation: {exc}"), ()
    except ArithmeticError as exc:
        return ("aborted-stepfail", t, "observables not representable: "
                f"{dynamics._error_text(exc)}"), ()
    except Exception as exc:  # the exception itself is the compared outcome
        return (type(exc), str(exc)), ()
    return None, _bits(row)


@given(representation=st.sampled_from(REPRESENTATIONS),
       params=params_st, t=st.floats(0.0, 100.0),
       A=st.floats(-3.0, 3.0), Adot=st.floats(-3.0, 3.0),
       rho=st.floats(0.2, 5.0), rhodot=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_written_row_matches_record_observables(representation, params, t, A,
                                                Adot, rho, rhodot):
    state = convert(SemiState(t, A, Adot, PinneySector(rho, rhodot)),
                    representation, params)
    y = flat_from_state(state)
    assert _write_outcome(representation, params, t, y) == \
        (None, _bits(_oracle_row(t, y, representation, params)))


# Components that break some kernel: nonpositive widths, non-finite values,
# and magnitudes where squares and cubes overflow or underflow.
bad_component = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e200,
                     -1e200, 1e155, 1e120, 1e-120, 1e-170, 1e-200, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(data=st.data(), representation=st.sampled_from(REPRESENTATIONS),
       params=params_st)
@settings(max_examples=600, deadline=None)
def test_writer_aborts_exactly_when_oracle_raises(data, representation,
                                                   params):
    y = tuple(data.draw(bad_component) for _ in range(WIDTHS[representation]))
    assert _write_outcome(representation, params, 1.5, y) == \
        _oracle_outcome(representation, params, 1.5, y)


# a valid state of each layout at A = 1, Adot = 1 for hbar = 1
VALID = {"pinney": (1.0, 0.0), "moments": (0.5, 0.0, 0.5),
         "mode": (math.sqrt(0.5), 0.0, 0.0, -math.sqrt(0.5))}


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_sampling_overflow_is_a_step_failure(representation, unit_params):
    rows = array("d")
    write = make_row_writer(representation, unit_params, rows)
    y = (1.0, 1.0, *VALID[representation])
    assert write(1.0, (1e200, *y[1:])) == (
        "aborted-stepfail", 1.0,
        "observables not representable: overflow: Numerical result out of "
        "range")
    assert len(rows) == 0
    assert write(1.0, y) is None
    assert _bits(rows) == _bits(_oracle_row(1.0, y, representation,
                                            unit_params))


@pytest.mark.parametrize("representation, y, message", [
    ("moments", (1.0, 1.0, -1.0, 0.0, 1.0), "<x^2> must be positive, got -1.0"),
    ("pinney", (1.0, 1.0, -1.0, 0.0),
     "pinney width rho must be positive, got -1.0"),
    ("mode", (1.0, 1.0, 0.0, 0.0, 0.0, -1.0), "<x^2> must be positive, got 0.0"),
    # rho^2 underflows: Omega = 1/rho^2 is out of range
    ("pinney", (1.0, 1.0, 1e-300, 0.0),
     "Omega = 1/rho^2 is not finite for rho = 1e-300"),
    # a fast rhodot: the vacuum moments' x2*p2 - c^2 cancels to just below
    # the writer's Heisenberg floor, though above 0
    ("pinney", (1.0, 1.0, 2.556565780583648, 1458261.2633403067),
     "moments violate the Heisenberg bound: x2*p2 - c^2 = 0.24951171875 < "
     "hbar^2/4 = 0.25"),
], ids=["moments-negative-x2", "pinney-negative-rho", "mode-vanished-f",
        "pinney-rho-squared-underflows", "pinney-below-heisenberg-floor"])
def test_sampling_an_invalid_state_is_a_step_failure(representation, y,
                                                     message, unit_params):
    rows = array("d")
    write = make_row_writer(representation, unit_params, rows)
    assert write(1.0, y) == ("aborted-stepfail", 1.0,
                             f"state failed validation: {message}")
    assert len(rows) == 0


@pytest.mark.parametrize("name, changes", [
    *((name, {}) for name in bundled_scenario_names()),
    *(("vacuum-kick", {"t_end": 2.0, "sample_every": 1,
                       "representation": rep, "method": method})
      for rep in REPRESENTATIONS for method in METHODS)])
def test_valid_runs_never_fall_back_to_the_oracle(monkeypatch, name, changes):
    # a domain test stricter than the kernels would send every sample through
    # record_observables: the same bytes, only slower
    calls = []
    oracle = dynamics.record_observables
    monkeypatch.setattr(dynamics, "record_observables",
                        lambda *args: calls.append(args) or oracle(*args))
    traj = integrate(dataclasses.replace(load_scenario(name), **changes))
    assert traj.completed and len(traj.records) > 2
    assert len(calls) == 1  # the start row, from checked_start


# ---------------------------------------------------------------------------
# convergence order over the legs' shared samples
# ---------------------------------------------------------------------------

def _left_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_convergence_order_matches_full_integrate_runs():
    # the oracle steps every leg with sample_every = 1 and picks the rows
    # at the dt grid's steps k = 0, s, 2s, ... below n and at n
    for t_end, factors, s in [
            (4.0, (2.0, 1.0, 0.5), 6),       # 2dt divides t_end: lcm(3, 2)
            (4.004, (1.0, 0.5, 0.25), 3)]:   # 1001 steps: sample_every
        config = dataclasses.replace(load_scenario("vacuum-kick"), t_end=t_end,
                                     representation="mode", dt=0.004,
                                     sample_every=3)
        n = round(t_end / config.dt)
        legs = []
        for f in factors:
            rows = integrate(dataclasses.replace(config, dt=config.dt * f,
                                                 sample_every=1)).records
            picked = (rows[round(k / f)] for k in [*range(0, n, s), n])
            legs.append([(r.A, r.Adot, r.rho, r.rhodot) for r in picked])
        errors = [math.sqrt(_left_sum(_left_sum((x - y) ** 2
                                                for x, y in zip(p, q))
                                      for p, q in zip(a, b)) / len(a))
                  for a, b in zip(legs, legs[1:])]
        expected = math.log2(errors[0] / errors[1])
        assert convergence_order(config) == expected
        assert convergence_order(config, integrate(config)) == expected
