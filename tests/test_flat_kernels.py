"""The flat hot path against its specification.

Every per-layout function (make_rhs, make_rk4_run, make_adaptive_run,
make_guard and make_row_writer) is generated by one dynamics._compiled from
one equation table (dynamics.LAYOUTS), and each maker rejects an unknown
layout with the same UsageError.  Each generated rk4 run must reproduce
run_fixed on partial(rk4_step, make_rhs) and make_guard after every step
bit for bit, from any grid step i0: its states, its abort and every
sample it hands over.  The run tests finiteness only at its checkpoints,
so examples whose first bad step (a non-finite state, a stage that raises,
the floor) lies strictly inside a block of sample_every steps hold its
retake of the block to the oracle's abort, also in the single block of
benettin_lyapunov's sample_every == n.  Both oracle loops, run_fixed and
run_adaptive, live in tests/oracles.py: the program steps only the
generated runs.  As the run and the guard share LAYOUTS' floor, the
guard's own literal oracle is in test_dynamics.  Each generated adaptive run must so
reproduce run_adaptive on partial(rkf45_step, make_rhs) and make_guard,
under any attempt bound, and every generated loop must jump back
unconditionally, so that CPython 3.11 specializes it within its first
calls.  The augmented right-hand side must be the moments flow and the
pinney width flow.  The row writers of make_row_writer must append
record_observables' row bit for bit, and abort, appending nothing, on
exactly the states where the oracle raises: a state failing validation, or
one whose observables leave double range, with dynamics.OUT_OF_RANGE as the
reason.  A writer hands every state outside the kernels' domain to
record_observables itself, and no valid run does so after its start row.
"""

import dis
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
    scenario_with,
)
from semiosc import dynamics
from semiosc.core import HEISENBERG_TOL, vacuum_moments
from semiosc.dynamics import (
    METHODS,
    REPRESENTATIONS,
    flat_from_state,
    make_adaptive_run,
    make_guard,
    make_rhs,
    make_rk4_run,
    make_row_writer,
    rk4_step,
    rkf45_step,
    state_from_flat,
)
from oracles import run_adaptive, run_fixed

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


def _run_outcome(run, refuse):
    """Bits of (final y, abort, every (t, y) sampled) of run(on_sample); the
    refuse-th sample is refused (0: none is)."""
    seen = []

    def on_sample(t, y):
        seen.append((t.hex(), _bits(y)))
        if len(seen) == refuse:
            return "refused", t, f"sample {refuse}"
        return None

    y, abort = run(on_sample)
    if abort is not None:
        abort = (abort[0], abort[1].hex(), abort[2])
    return _bits(y), abort, seen


# Runs whose first bad step lies strictly inside a block of sample_every
# steps, after the first block: neither that step nor the one before it is a
# checkpoint, so the generated run finds it only by retaking the block from
# its checkpoint (test_examples_fail_strictly_inside_a_block holds each to
# its path).  In moments, <x^2> rotates through 1.8e308 and overflows at
# step 11 of blocks of 4.
NONFINITE_INSIDE = dict(params=ModelParams(m=1.0, e=0.0, hbar=1.0),
                        y=(0.0, 0.0, 0.0, 2e306, 1.78e308, 0.0, 0.0),
                        w=(1.78e308, 1.0), h=0.05, n=60, sample_every=4, i0=0,
                        refuse=0, rho_min=1e-8)
# In pinney the width falls on a straight line at rate -1e110 (1 / rho^3
# changes that rate by about 1e-16 of itself per step of 1e-212), and stage
# 4 of step 5 lands near 1e-110, whose cube underflows: finite steps 1-4, in
# blocks of 3
SINGULAR_INSIDE = dict(params=UNIT, y=(0.0, 0.0, 0.0, -1e110, 0.0, 0.0, 0.0),
                       w=(5e-102 + 1e-110, 1.0), h=1e-212, n=20,
                       sample_every=3, i0=7, refuse=0, rho_min=1e-300)
# In pinney the width reaches the floor at step 13, in blocks of 5
FLOOR_INSIDE = dict(params=UNIT, y=(0.0, 0.0, 0.0, -3.0, 0.0, 0.0, 0.0),
                    w=(0.6, 1.0), h=0.01, n=100, sample_every=5, i0=40,
                    refuse=0, rho_min=0.3)
# The same runs under benettin_lyapunov's arguments, sample_every == n: the
# bad step lies strictly inside the single block, retaken from checkpoint 0
SINGLE_BLOCK = [{**case, "sample_every": case["n"]}
                for case in (NONFINITE_INSIDE, SINGULAR_INSIDE, FLOOR_INSIDE)]


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
@example(**NONFINITE_INSIDE)
@example(**SINGULAR_INSIDE)
@example(**FLOOR_INSIDE)
@example(**SINGLE_BLOCK[0])
@example(**SINGLE_BLOCK[1])
@example(**SINGLE_BLOCK[2])
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

    outcome = _run_outcome(partial(run, y, h, n, sample_every, i0=i0), refuse)
    assert outcome == _run_outcome(
        partial(oracle, y, h, n, sample_every, i0=i0), refuse)
    event("completed" if outcome[1] is None else f"{outcome[1][0]}: "
          f"{outcome[1][2].split(' ')[0]}")


@pytest.mark.parametrize("representation, case, reason", [
    ("moments", NONFINITE_INSIDE, "non-finite state component"),
    ("pinney", SINGULAR_INSIDE, dynamics.SINGULAR_STEP),
    ("pinney", FLOOR_INSIDE, "rho = "),
    ("moments", SINGLE_BLOCK[0], "non-finite state component"),
    ("pinney", SINGLE_BLOCK[1], dynamics.SINGULAR_STEP),
    ("pinney", SINGLE_BLOCK[2], "rho = ")])
def test_examples_fail_strictly_inside_a_block(representation, case, reason):
    # the oracle stops at step i, the one that raised or failed the guard,
    # after the first block or inside the single one, with neither i nor
    # i - 1 a checkpoint
    steps = []
    step = partial(rk4_step, make_rhs(representation, case["params"]))

    def traced(t, y, h):
        steps.append(t)
        return step(t, y, h)

    _, abort = run_fixed(traced, _state(representation, case["y"], case["w"]),
                         case["h"], case["n"], 1,
                         make_guard(representation, case["params"],
                                    case["rho_min"]), None, case["i0"])
    i, every = len(steps), case["sample_every"]
    assert abort[2].startswith(reason), abort
    assert every < i < case["n"] or i < case["n"] == every, i
    assert i % every not in (0, 1), i


def _adaptive_example(**changes):
    """An example of the adaptive run test: a smooth run over t = 1 with one
    case's changes."""
    return example(**{"params": UNIT, "y": (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0),
                      "w": (1.0, 1.0), "t_end": 1.0, "h0": 0.1, "rtol": 1e-8,
                      "atol": 1e-8, "sample_every": 3, "refuse": 0,
                      "rho_min": 1e-8, "max_attempts": 10 ** 7,
                      "window": 2 ** 16, **changes})


@pytest.mark.parametrize("representation", list(WIDTHS))
@given(params=params_st,
       y=st.tuples(*[component] * 7) | st.tuples(*[st.floats(-3.0, 3.0)] * 7),
       w=st.tuples(floor_component, floor_component),
       t_end=st.floats(0.01, 2.0), h0=st.floats(1e-4, 1.0),
       rtol=st.floats(1e-9, 1e-3), atol=st.floats(1e-9, 1e-3),
       sample_every=st.integers(1, 30),
       refuse=st.integers(0, 12), rho_min=st.floats(1e-8, 1.0),
       max_attempts=st.one_of(st.just(10 ** 7), st.integers(1, 60)),
       window=st.one_of(st.just(2 ** 16), st.integers(1, 20)))
@_adaptive_example(h0=1.0, rtol=1e-10, atol=1e-10)  # rejected steps
@_adaptive_example(t_end=0.05, h0=0.5, rtol=1e-3, atol=1e-3)  # clamped at once
@_adaptive_example(sample_every=1, refuse=2)  # a refused sample
@_adaptive_example(y=(1e200, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0))  # y5 not finite
# huge components overflow in the stages: y5 is nan at every step size
@_adaptive_example(y=(1e200, -1e160, 1.0, 1e100, 0.5, -1e300, 1.0),
                   w=(1.0, 1e100), h0=1.0)
@_adaptive_example(rtol=1e-300, atol=1e-300)  # the step size underflows
# a width whose cube underflows: the first stage raises (pinney, augmented)
@_adaptive_example(w=(1e-110, 1e-110))
@_adaptive_example(max_attempts=10)  # the attempt bound
# the progress window: its checks at 16 and 32 attempts pass on pinney, the
# one at 48 stops the run; the other layouts stop at 16
@_adaptive_example(rtol=1e-10, atol=1e-10, max_attempts=60, window=16)
# the width reaches the floor mid-run
@_adaptive_example(y=(0.0, 0.0, 0.0, -2.0, 0.5, 0.0, -2.0), w=(0.6, 0.6),
                   t_end=2.0, rho_min=0.5)
@settings(max_examples=60, deadline=None)
def test_generated_adaptive_run_matches_run_adaptive(
        representation, params, y, w, t_end, h0, rtol, atol, sample_every,
        refuse, rho_min, max_attempts, window):
    y = _state(representation, y, w)
    run = make_adaptive_run(representation, params, rho_min)
    step = partial(rkf45_step, make_rhs(representation, params))
    guard = make_guard(representation, params, rho_min)
    with pytest.MonkeyPatch.context() as patch:
        # both read the bound and the window when they run
        patch.setattr(dynamics, "MAX_STEP_ATTEMPTS", max_attempts)
        patch.setattr(dynamics, "PROGRESS_WINDOW", window)
        outcome = _run_outcome(partial(run, y, t_end, h0, rtol, atol,
                                       sample_every), refuse)
        assert outcome == _run_outcome(
            lambda on_sample: run_adaptive(step, y, t_end, h0, rtol, atol,
                                           sample_every, guard, on_sample),
            refuse)
    event("completed" if outcome[1] is None else f"{outcome[1][0]}: "
          f"{outcome[1][2].split(' ')[0]}")


@pytest.mark.parametrize("kind", ["rk4", "adaptive"])
@pytest.mark.parametrize("layout", list(WIDTHS))
def test_generated_loops_jump_backward_unconditionally(kind, layout,
                                                       unit_params):
    # CPython 3.11 specializes a code object after 8 calls or 8
    # JUMP_BACKWARDs; a POP_JUMP_BACKWARD_IF_* back edge (`while t < t_end:`)
    # does not count, so a run called fewer than 8 times would stay generic
    run = dynamics._compiled(kind, layout)(unit_params, 1e-8)
    names = {i.opname for i in dis.get_instructions(run)}
    assert not [name for name in names if name.startswith("POP_JUMP_BACKWARD")]


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
                           id="make_rk4_run"),
    pytest.param(partial(make_adaptive_run, rho_min=1e-8),
                 id="make_adaptive_run"),
    pytest.param(partial(make_row_writer, rows=array("d")),
                 id="make_row_writer"),
    pytest.param(partial(make_guard, rho_min=1e-8), id="make_guard")])
@pytest.mark.parametrize("name", ["bogus", "Pinney", ""])
def test_unknown_layout_is_a_usage_error(make, name, unit_params):
    with pytest.raises(UsageError,
                       match=re.escape(f"unknown representation {name!r}")):
        make(name, unit_params)


def test_augmented_has_no_row_writer(unit_params):
    # the adiabatic-invariant check's flow is stepped, never sampled
    with pytest.raises(UsageError,
                       match=re.escape("unknown representation 'augmented'")):
        make_row_writer("augmented", unit_params, array("d"))


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
    except ArithmeticError:
        return ("aborted-stepfail", t, "observables not representable: "
                f"{dynamics.OUT_OF_RANGE}"), ()
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
        "observables not representable: a derived quantity is outside double "
        "range")
    assert len(rows) == 0
    assert write(1.0, y) is None
    assert _bits(rows) == _bits(_oracle_row(1.0, y, representation,
                                            unit_params))


INVALID = "state failed validation: "


@pytest.mark.parametrize("representation, y, reason", [
    ("moments", (1.0, 1.0, -1.0, 0.0, 1.0),
     INVALID + "<x^2> must be positive, got -1.0"),
    ("pinney", (1.0, 1.0, -1.0, 0.0),
     INVALID + "pinney width rho must be positive, got -1.0"),
    ("mode", (1.0, 1.0, 0.0, 0.0, 0.0, -1.0),
     INVALID + "<x^2> must be positive, got 0.0"),
    # rho^2 underflows: Omega = 1/rho^2 divides by zero
    ("pinney", (1.0, 1.0, 1e-300, 0.0),
     "observables not representable: a derived quantity is outside double "
     "range"),
], ids=["moments-negative-x2", "pinney-negative-rho", "mode-vanished-f",
        "pinney-rho-squared-underflows"])
def test_sampling_an_invalid_state_is_a_step_failure(representation, y,
                                                     reason, unit_params):
    rows = array("d")
    write = make_row_writer(representation, unit_params, rows)
    assert write(1.0, y) == ("aborted-stepfail", 1.0, reason)
    assert len(rows) == 0


def test_sampling_a_fast_width_rate_writes_its_row(unit_params):
    # x2*p2 - c^2 of the vacuum moments, hbar^2/4 by construction, cancels to
    # just below the Heisenberg floor; neither the writer nor the oracle
    # tests it, so the state is sampled
    y = (1.0, 1.0, 2.556565780583648, 1458261.2633403067)
    row = _oracle_row(1.0, y, "pinney", unit_params)
    vac = vacuum_moments(row.Omega, row.Omegadot, unit_params.hbar)
    assert vac.x2 * vac.p2 - vac.c * vac.c < 0.25 * (1.0 - HEISENBERG_TOL)
    rows = array("d")
    assert make_row_writer("pinney", unit_params, rows)(1.0, y) is None
    assert _bits(rows) == _bits(row)


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
    traj = integrate(scenario_with(load_scenario(name), **changes))
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
        config = scenario_with(load_scenario("vacuum-kick"), t_end=t_end,
                               representation="mode", dt=0.004,
                               sample_every=3)
        n = round(t_end / config.dt)
        legs = []
        for f in factors:
            rows = integrate(scenario_with(config, dt=config.dt * f,
                                           sample_every=1)).records
            picked = (rows[round(k / f)] for k in [*range(0, n, s), n])
            legs.append([(r.A, r.Adot, r.rho, r.rhodot) for r in picked])
        errors = [math.sqrt(_left_sum(_left_sum((x - y) ** 2
                                                for x, y in zip(p, q))
                                      for p, q in zip(a, b)) / len(a))
                  for a, b in zip(legs, legs[1:])]
        expected = math.log2(errors[0] / errors[1])
        assert convergence_order(config) == expected
        assert convergence_order(config, main=integrate(config)) == expected
