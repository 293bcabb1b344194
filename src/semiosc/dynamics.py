"""Time evolution of the coupled classical-quantum system.

The coupled first-order system is integrated without operator splitting, in
one of three equivalent quantum-sector representations:

pinney    y = (A, Adot, rho, rhodot)          rhoddot = -omega^2 rho + 1/rho^3
mode      y = (A, Adot, Re f, Im f, Re fdot, Im fdot)   fddot = -omega^2 f
moments   y = (A, Adot, x2, c, p2)            linear moment flow

All three share the classical back-reaction Addot = -e^2 A <x^2>.  Observables
are always computed from the exact state at sample times, never interpolated.
The rates, the width floor and its abort reason are written once, in
LAYOUTS; every per-layout function (right-hand side, rk4 run, adaptive run,
guard and sampled-row writer) is generated from that table by _compiled.
"""

import linecache
import math
import re
import struct
from array import array
from collections import namedtuple
from functools import cache, partial

from .core import (
    DomainError,
    GaussianMoments,
    ModelParams,
    ModeSector,
    PinneySector,
    SemiState,
    SemiquantumError,
    UsageError,
    ValidationError,
    _remake,
    energies,
    frequency,
    occupation_difference_leading,
    occupation_numbers,
    state_effective_frequency,
    state_moments,
    validate_state,
)

__all__ = [
    "REPRESENTATIONS",
    "METHODS",
    "QUANTUM_INITS",
    "ScenarioConfig",
    "TimeSeriesRecord",
    "COLUMNS",
    "Trajectory",
    "init_vacuum",
    "init_adiabatic",
    "initial_state",
    "checked_start",
    "convert",
    "fixed_grid",
    "integrate",
    "record_observables",
    "make_rhs",
    "make_rk4_run",
    "make_adaptive_run",
    "make_row_writer",
    "make_guard",
    "flat_from_state",
    "state_from_flat",
    "Records",
]

REPRESENTATIONS = ("pinney", "mode", "moments")
METHODS = ("rk4", "adaptive")
QUANTUM_INITS = ("vacuum", "explicit", "adiabatic")

STATUS_COMPLETED = "completed"
STATUS_SINGULARITY = "aborted-singularity"
STATUS_STEPFAIL = "aborted-stepfail"
SINGULAR_STEP = "singular right-hand side evaluation"  # a step that raised
# a start or a sample whose kernels raised ArithmeticError: the overflow,
# underflow to zero or division by zero of some quantity derived from it
OUT_OF_RANGE = "a derived quantity is outside double range"

# Work bounds (cf. ODEPACK's MXSTEP): rk4 configs with more steps are
# rejected, an adaptive run stops after this many step attempts.  Both are
# over 100x the largest run of any bundled scenario, test or benchmark
# (400,000 rk4 steps, about 2,000 attempts).  Every PROGRESS_WINDOW attempts
# an adaptive run also stops if its progress in t over that window, kept up
# for the attempts left, falls short of t_end.
MAX_RK4_STEPS = 10 ** 8
MAX_STEP_ATTEMPTS = 10 ** 7
PROGRESS_WINDOW = 2 ** 16

# ScenarioConfig's float fields, which must be finite (None where optional);
# with ModelParams' m, e and hbar these are the float config keys
FLOAT_KEYS = ("A0", "Adot0", "t_end", "dt", "dt_init", "rtol", "atol",
              "rho0", "rhodot0", "rho_min")
# the float keys that must be positive
POSITIVE_KEYS = ("t_end", "dt", "dt_init", "rtol", "atol", "rho_min")
# ScenarioConfig's choice fields, each with its allowed values
CHOICES = {"representation": REPRESENTATIONS, "method": METHODS,
           "quantum_init": QUANTUM_INITS}


# ScenarioConfig's optional fields with their defaults, in field order
_CONFIG_DEFAULTS = {"representation": "pinney", "method": "rk4", "dt": 1e-3,
                    "rtol": 1e-10, "atol": 1e-12, "dt_init": 1e-3,
                    "sample_every": 10, "quantum_init": "vacuum",
                    "rho0": None, "rhodot0": None, "rho_min": 1e-8}


class ScenarioConfig(namedtuple(
        "ScenarioConfig", ("params", "A0", "Adot0", "t_end", *_CONFIG_DEFAULTS),
        defaults=_CONFIG_DEFAULTS.values())):
    """Everything needed to reproduce one run: params (a ModelParams), A0,
    Adot0 and t_end, and the optional fields of _CONFIG_DEFAULTS.

    quantum_init selects the initial quantum sector:
      vacuum    rho0 = omega(A0)**-0.5, rhodot0 = 0 (instantaneous ground state)
      explicit  rho0, rhodot0 given in the config
      adiabatic width started on the slowly-tracking solution (second
                adiabatic order), suppressing the startup oscillation that a
                plain vacuum start excites whenever omegadot(0) != 0

    method "rk4" is fixed-step classical Runge-Kutta with step dt;
    "adaptive" is an embedded 4(5) pair controlled by rtol/atol from dt_init.
    sample_every is the output stride in (accepted) steps; the initial state
    and the final state are always recorded.  Derive a changed config with
    scenario_with, which runs every check again.
    """

    __slots__ = ()
    _make = classmethod(_remake)

    def __init__(self, *_args, **_kwargs) -> None:
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise UsageError(f"unknown {key} {getattr(self, key)!r}")
        for key in FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value}")
        for key in POSITIVE_KEYS:
            value = getattr(self, key)
            if not (value > 0.0):
                raise UsageError(f"{key} must be positive, got {value}")
        if not math.isfinite(self.t_end / self.dt):
            raise UsageError(f"dt = {self.dt} is too small for t_end = "
                             f"{self.t_end}: the step count is not finite")
        if self.method == "rk4":
            n, h = fixed_grid(self.t_end, self.dt)
            if n > MAX_RK4_STEPS:
                raise UsageError(f"dt = {self.dt} makes {n:.6g} steps over t_end"
                                 f" = {self.t_end}, more than {MAX_RK4_STEPS:.6g}")
            if not math.isclose(h, self.dt, rel_tol=1e-9):
                raise UsageError(f"dt = {self.dt} does not divide t_end = "
                                 f"{self.t_end} into whole steps")
        if not isinstance(self.sample_every, int):
            raise UsageError(f"sample_every must be an integer, got "
                             f"{self.sample_every}")
        if self.sample_every < 1:
            raise UsageError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.quantum_init == "explicit":
            if self.rho0 is None or self.rhodot0 is None:
                raise UsageError("explicit quantum_init requires rho0 and rhodot0")
            if not (self.rho0 > 0.0):
                raise UsageError(f"rho0 must be positive, got {self.rho0}")


class TimeSeriesRecord(namedtuple(
        "TimeSeriesRecord",
        "t A Adot rho rhodot Omega Omegadot omega omegadot x2 p2 c "
        "N_ours N_cdms dN_leading Hx Etot corr")):
    """One sampled row of every observable.  Field order is the CSV schema."""

    __slots__ = ()


COLUMNS: tuple[str, ...] = TimeSeriesRecord._fields


class Records:
    """Read-only row view of columnar time-series data.

    Indexing and iteration yield TimeSeriesRecord rows; slicing returns
    another view.  Bulk consumers read `columns` (name -> sequence of floats)
    directly.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records({k: v[index] for k, v in self.columns.items()})
        return TimeSeriesRecord(*(self.columns[k][index] for k in COLUMNS))

    def __iter__(self):
        return map(TimeSeriesRecord, *(self.columns[k] for k in COLUMNS))


def columns_from_rows(flat) -> dict:
    """Split a flat row-major float array of COLUMNS-wide rows into columns."""
    width = len(COLUMNS)
    return {name: flat[i::width] for i, name in enumerate(COLUMNS)}


class Trajectory(namedtuple("Trajectory",
                            "config columns status abort_time abort_reason",
                            defaults=(None, None))):
    """Result of integrate(config): the config it ran, sampled observables
    as columns (name -> array of float64, in COLUMNS order) and how the run
    ended (abort_time and abort_reason are None unless it aborted)."""

    __slots__ = ()

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETED

    @property
    def records(self) -> Records:
        return Records(self.columns)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def init_vacuum(A0: float, Adot0: float, params: ModelParams) -> SemiState:
    """Instantaneous-vacuum start: Omega(0) = omega(A0), Omegadot(0) = 0.

    Equivalently rho0 = omega0**-0.5, rhodot0 = 0, which also makes
    rhoddot(0) = 0: the width starts at its momentary Pinney equilibrium, and
    the shearless occupation starts at exactly zero.
    """
    omega0, _ = frequency(A0, Adot0, params)
    return SemiState(0.0, A0, Adot0, PinneySector(omega0 ** -0.5, 0.0))


def init_adiabatic(A0: float, Adot0: float, params: ModelParams) -> SemiState:
    """Start the width on the slow-tracking solution instead of the vacuum.

    A vacuum start fixes Omegadot(0) = 0; when omegadot(0) != 0 that mismatch
    excites an O(e^2) oscillation of Omega about its adiabatic track, which
    contaminates small-coupling scaling studies.  Here Omega(0) carries the
    second-order adiabatic shift and Omegadot(0) = omegadot(0), leaving only
    an O(e^4) startup residual:

        Omega(0)    = omega (1 - omegaddot/(4 omega^3) + 3 omegadot^2/(8 omega^4))
        Omegadot(0) = omegadot
    """
    omega0, omegadot0 = frequency(A0, Adot0, params)
    e2 = params.e * params.e
    x2_0 = 0.5 * params.hbar / omega0
    Addot0 = -e2 * A0 * x2_0
    omegaddot0 = (e2 * (Adot0 * Adot0 + A0 * Addot0) - omegadot0 * omegadot0) / omega0
    Omega0 = omega0 * (1.0 - 0.25 * omegaddot0 / omega0 ** 3
                       + 0.375 * (omegadot0 / (omega0 * omega0)) ** 2)
    if not (Omega0 > 0.0):
        raise DomainError("adiabatic start left the domain (Omega0 <= 0); "
                          "the scenario is not slowly driven")
    rho0 = Omega0 ** -0.5
    rhodot0 = -0.5 * Omega0 ** -1.5 * omegadot0
    return SemiState(0.0, A0, Adot0, PinneySector(rho0, rhodot0))


# what the start's kernels raise on values outside their domain
_START_ERRORS = (ArithmeticError, DomainError, ValidationError)


def initial_state(config: ScenarioConfig) -> SemiState:
    """Initial SemiState of a scenario, converted to its representation.

    A start the frequency law cannot evaluate (an overflow, a division by
    zero, a width or moments out of their domain) raises DomainError naming
    every key the start depends on.
    """
    try:
        if config.quantum_init == "vacuum":
            state = init_vacuum(config.A0, config.Adot0, config.params)
        elif config.quantum_init == "adiabatic":
            state = init_adiabatic(config.A0, config.Adot0, config.params)
        else:
            state = SemiState(0.0, config.A0, config.Adot0,
                              PinneySector(config.rho0, config.rhodot0))
        return convert(state, config.representation, config.params)
    except _START_ERRORS as exc:
        raise _bad_start(config, exc) from None


def checked_start(config: ScenarioConfig
                  ) -> tuple[SemiState, TimeSeriesRecord]:
    """(initial state, record_observables of it) of a run that can start.

    Raises DomainError naming every key the start depends on when the
    initial state or its row cannot be computed, or the row holds a
    non-finite value.
    """
    state0 = initial_state(config)
    try:
        # not the row writer: perfbench --trace 1 wraps this call to
        # collect states
        row0 = record_observables(state0, config.params)
    except _START_ERRORS as exc:
        raise _bad_start(config, exc) from None
    for name, value in zip(COLUMNS, row0):
        if not math.isfinite(value):
            raise _bad_start(config, f"{name} = {value}")
    return state0, row0


def _bad_start(config: ScenarioConfig, why) -> DomainError:
    params = config.params
    keys = {"m": params.m, "e": params.e, "hbar": params.hbar,
            "A0": config.A0, "Adot0": config.Adot0}
    if config.quantum_init == "explicit":
        keys.update(rho0=config.rho0, rhodot0=config.rhodot0)
    named = ", ".join(f"{k} = {v}" for k, v in keys.items())
    if isinstance(why, ArithmeticError):
        why = OUT_OF_RANGE
    return DomainError(f"{named}: the initial state is not representable "
                       f"({why})")


# ---------------------------------------------------------------------------
# representation conversion
# ---------------------------------------------------------------------------

def convert(state: SemiState, target: str, params: ModelParams) -> SemiState:
    """Re-express the quantum sector in another representation.

    Conversions are exact algebraic maps; pinney -> mode fixes the phase
    convention theta(0) = 0 (the mode function starts real positive).
    Sources are validated first: a mode state must carry Wronskian i*hbar, a
    moments state must be pure, otherwise ValidationError.
    """
    if target not in REPRESENTATIONS:
        raise UsageError(f"unknown representation {target!r}")
    validate_state(state, params)
    if state.representation == target:
        return state
    h = params.hbar
    if state.representation != "pinney":
        mom = state_moments(state, params)
        rho = math.sqrt(2.0 * mom.x2 / h)
        state = SemiState(state.t, state.A, state.Adot,
                          PinneySector(rho, 2.0 * mom.c / (h * rho)))
    if target == "pinney":
        return state
    if target == "moments":
        return state._replace(quantum=state_moments(state, params))
    rho, rhodot = state.quantum.rho, state.quantum.rhodot
    amp = math.sqrt(0.5 * h)
    return state._replace(quantum=ModeSector(complex(amp * rho, 0.0),
                                             complex(amp * rhodot, -amp / rho)))


# ---------------------------------------------------------------------------
# flat state vectors (plain float tuples, for the steppers)
# ---------------------------------------------------------------------------

def flat_from_state(state: SemiState) -> tuple[float, ...]:
    q = state.quantum
    if isinstance(q, PinneySector):
        return (state.A, state.Adot, q.rho, q.rhodot)
    if isinstance(q, ModeSector):
        return (state.A, state.Adot, q.f.real, q.f.imag, q.fdot.real, q.fdot.imag)
    return (state.A, state.Adot, q.x2, q.c, q.p2)


def state_from_flat(t: float, y: tuple[float, ...], representation: str) -> SemiState:
    if representation == "pinney":
        return SemiState(t, y[0], y[1], PinneySector(y[2], y[3]))
    if representation == "mode":
        return SemiState(t, y[0], y[1],
                         ModeSector(complex(y[2], y[3]), complex(y[4], y[5])))
    return SemiState(t, y[0], y[1], GaussianMoments(x2=y[2], p2=y[4], c=y[3]))


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

def ignore_sample(t, y):
    """on_sample that keeps nothing, for an rk4 retake and Benettin segments."""


def rk4_step(rhs, t, y, h):
    """One classical fourth-order Runge-Kutta step."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
    k3 = rhs(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
    k4 = rhs(t + h, tuple(a + h * b for a, b in zip(y, k3)))
    six = h / 6.0
    return tuple(a + six * (b + 2.0 * (c + d) + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4))


def rkf45_step(rhs, t, y, h):
    """One embedded Fehlberg 4(5) step: returns (y5, per-component error)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.25 * h,
             tuple(a + 0.25 * h * b for a, b in zip(y, k1)))
    k3 = rhs(t + 0.375 * h,
             tuple(a + h * (0.09375 * b + 0.28125 * c)
                   for a, b, c in zip(y, k1, k2)))
    k4 = rhs(t + 12.0 / 13.0 * h,
             tuple(a + h * (1932.0 / 2197.0 * b - 7200.0 / 2197.0 * c
                            + 7296.0 / 2197.0 * d)
                   for a, b, c, d in zip(y, k1, k2, k3)))
    k5 = rhs(t + h,
             tuple(a + h * (439.0 / 216.0 * b - 8.0 * c + 3680.0 / 513.0 * d
                            - 845.0 / 4104.0 * e)
                   for a, b, c, d, e in zip(y, k1, k2, k3, k4)))
    k6 = rhs(t + 0.5 * h,
             tuple(a + h * (-8.0 / 27.0 * b + 2.0 * c - 3544.0 / 2565.0 * d
                            + 1859.0 / 4104.0 * e - 11.0 / 40.0 * f)
                   for a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5)))
    y5 = tuple(a + h * (16.0 / 135.0 * b + 6656.0 / 12825.0 * d
                        + 28561.0 / 56430.0 * e - 9.0 / 50.0 * f + 2.0 / 55.0 * g)
               for a, b, d, e, f, g in zip(y, k1, k3, k4, k5, k6))
    err = tuple(h * (b / 360.0 - 128.0 / 4275.0 * d - 2197.0 / 75240.0 * e
                     + f / 50.0 + 2.0 / 55.0 * g)
                for b, d, e, f, g in zip(k1, k3, k4, k5, k6))
    return y5, err


# ---------------------------------------------------------------------------
# the equation table, and the code generated from it
# ---------------------------------------------------------------------------

# Each flat layout: its state names in order, each with its rate; its
# width-floor test; and that test's abort reason.  Rates read the state, the
# prelude's w2 and m2, e2, half_hbar and ne2 = -e2 (negated once, which is
# exact); floor tests and reasons read the state, rho_min and x2_floor =
# hbar rho_min^2 / 2, and reasons t.  A rate that is a bare state name names
# a later component, as the rk4 run updates its state in order.
PRELUDE = "w2 = m2 + e2 * A * A"
_MOMENTS = {"A": "Ad", "Ad": "ne2 * A * x2", "x2": "2.0 * c",
            "c": "p2 - w2 * x2", "p2": "-2.0 * w2 * c"}
_WIDTH = {"r": "rd", "rd": "1.0 / (r * r * r) - w2 * r"}
_WIDTH_FLOOR = ("r <= rho_min",
                'f"rho = {r} fell to the floor {rho_min} at t={t}"')
_X2_REASON = 'f"<x^2> fell to the width floor at t={t}"'
LAYOUTS = {
    "pinney": ({"A": "Ad", "Ad": "ne2 * A * half_hbar * r * r", **_WIDTH},
               *_WIDTH_FLOOR),
    "mode": ({"A": "Ad", "Ad": "ne2 * A * (fr * fr + fi * fi)", "fr": "gr",
              "fi": "gi", "gr": "-w2 * fr", "gi": "-w2 * fi"},
             "fr * fr + fi * fi <= x2_floor", _X2_REASON),
    "moments": (_MOMENTS, "x2 <= x2_floor", _X2_REASON),
    # the adiabatic-invariant check's flow: the moments and a pinney width
    "augmented": ({**_MOMENTS, **_WIDTH}, *_WIDTH_FLOOR),
}

# Per kind: the stages after the first, the suffixes of the names that keep
# the results, then the results, term for term as rk4_step and rkf45_step
# write them, on each component y and the rates k1, k2, ... of the stages so
# far (hh = 0.5 * h and six = h / 6.0 are rk4_step's leading products).
TABLEAUS = {
    "rhs": ((), ("",), "{k1}"),
    "rk4": (("{y} + hh * {k1}", "{y} + hh * {k2}", "{y} + h * {k3}"),
            ("",), "{y} + six * ({k1} + 2.0 * ({k2} + {k3}) + {k4})"),
    "adaptive": (("{y} + 0.25 * h * {k1}",
                  "{y} + h * (0.09375 * {k1} + 0.28125 * {k2})",
                  "{y} + h * (1932.0 / 2197.0 * {k1} - 7200.0 / 2197.0 * {k2}"
                  " + 7296.0 / 2197.0 * {k3})",
                  "{y} + h * (439.0 / 216.0 * {k1} - 8.0 * {k2}"
                  " + 3680.0 / 513.0 * {k3} - 845.0 / 4104.0 * {k4})",
                  "{y} + h * (-8.0 / 27.0 * {k1} + 2.0 * {k2}"
                  " - 3544.0 / 2565.0 * {k3} + 1859.0 / 4104.0 * {k4}"
                  " - 11.0 / 40.0 * {k5})"), ("_new", "_err"),
                 "{y} + h * (16.0 / 135.0 * {k1} + 6656.0 / 12825.0 * {k3}"
                 " + 28561.0 / 56430.0 * {k4} - 9.0 / 50.0 * {k5}"
                 " + 2.0 / 55.0 * {k6})",
                 "h * ({k1} / 360.0 - 128.0 / 4275.0 * {k3} - 2197.0 / 75240.0"
                 " * {k4} + {k5} / 50.0 + 2.0 / 55.0 * {k6})"),
}

_HEAD = """\
def make(params, rho_min):
    m2, e2, half_hbar = params.m * params.m, params.e * params.e, 0.5 * params.hbar
    ne2 = -e2
"""
_RHS = _HEAD + """\
    def rhs(t, y):
        {state} = y
        {stages}
        return ({results})
    return rhs
"""
# the guard of a step, the abort of every run: one isfinite (x * 0.0 is nan
# exactly when x is not finite), then the layout's floor test
_GUARD = _HEAD + """\
    x2_floor = 0.5 * params.hbar * rho_min * rho_min
    isfinite = math.isfinite
    def guard(t, y):
        {state} = y
        if not isfinite({finite}):
            return STATUS_STEPFAIL, t, f"non-finite state component at t={{t}}"
        if {floor}:
            return STATUS_SINGULARITY, t, {reason}
        return None
"""
# The rk4 run tests the guard's floor after every step, and finiteness only
# at its checkpoints: every sample_every-th step and the last, where it hands
# the state to on_sample.  Every update is y + six * (...), and inf + x and
# nan + x are not finite, so a component that is not finite stays so up to
# the next checkpoint.  A state found not finite (at a checkpoint, the floor
# test or a raising stage) more than one step after the last checkpoint ck,
# whose state NAME_ck keeps, is retaken from ck by the same run with every
# step a checkpoint and ignore_sample as its sink: the retake stops at the
# first bad step, with the abort of the guard after every step.
_RK4_RUN = _GUARD + """\
    def run(y, h, n, sample_every, on_sample, i0=0):
        {state} = {checkpoint} = y
        hh, six = 0.5 * h, h / 6.0
        ck, nxt = 0, min(sample_every, n)
        for i in range(1, n + 1):
            try:
                {stages}
            except (ZeroDivisionError, OverflowError):
                if i == ck + 1 or isfinite({finite}):
                    return ({state}), (STATUS_SINGULARITY, (i0 + i - 1) * h,
                                      SINGULAR_STEP)
                break
            {update}
            if {floor}:
                break
            if i == nxt:
                if not isfinite({finite}):
                    break
                {keep}
                ck = i
                nxt += sample_every
                if nxt > n:
                    nxt = n
                t = (i0 + i) * h
                hit = on_sample(t, ({state}))
                if hit is not None:
                    return ({state}), hit
        else:
            return ({state}), None
        if i > ck + 1 and not isfinite({finite}):
            return run(({checkpoint}), h, i - ck, 1, ignore_sample, i0 + ck)
        return ({state}), guard((i0 + i) * h, ({state}))
    return run
"""
# run_adaptive (tests/oracles.py) on rkf45_step and the guard, y5 in
# NAME_new and err in NAME_err; the norm's abs and max are inlined, with the
# builtins' results.  A step is accepted only with a finite enorm, which
# needs every NAME_new finite, so after it the guard's floor test alone can
# fire.
_ADAPTIVE_RUN = _GUARD + """\
    sqrt, inf = math.sqrt, math.inf
    def run(y, t_end, h0, rtol, atol, sample_every, on_sample):
        {state} = y
        max_attempts, window, width = MAX_STEP_ATTEMPTS, PROGRESS_WINDOW, len(y)
        t = last_sampled_t = t_mark = 0.0
        h, accepted, attempts = min(h0, t_end), 0, 0
        check_at = min(window, max_attempts)
        while True:  # not `while t < t_end`, which CPython 3.11 does not specialize
            if not t < t_end:
                break
            if attempts == check_at:  # with no attempts left, always stops
                if (t - t_mark) * (max_attempts - attempts) < (t_end - t) * window:
                    return ({state}), (STATUS_STEPFAIL, t, f"{{attempts}} step "
                        f"attempts did not reach t_end = {{t_end}}")
                t_mark, check_at = t, min(attempts + window, max_attempts)
            attempts += 1
            clamped = h >= t_end - t
            if clamped:
                h = t_end - t
            try:
                {stages}
                {update}
            except (ZeroDivisionError, OverflowError):
                return ({state}), (STATUS_SINGULARITY, t, SINGULAR_STEP)
            enorm = inf
            if isfinite({checked}):
                try:
                    acc = 0.0
                    {norm}
                    enorm = sqrt(acc / width)
                except OverflowError:
                    pass
            if enorm > 1.0:
                h *= 0.2 if not isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
                if h < 1e-14 * max(1.0, abs(t)):
                    return ({state}), (STATUS_STEPFAIL, t,
                        f"step size underflow at t={{t}}")
                continue
            t = t_end if clamped else t + h
            {state} = {new}
            accepted += 1
            if {floor}:
                return ({state}), guard(t, ({state}))
            if (accepted % sample_every == 0
                    or t >= t_end) and t != last_sampled_t:
                hit, last_sampled_t = on_sample(t, ({state})), t
                if hit is not None:
                    return ({state}), hit
            h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2)) if enorm > 0.0 else 5.0
        return ({state}), None
    return run
"""
# one component's term: max(p, q) keeps p unless q > p
_NORM_TERM = """\
p = {y} if {y} >= 0.0 else -{y}
q = {y}_new if {y}_new >= 0.0 else -{y}_new
acc += ({y}_err / (atol + rtol * (q if q > p else p))) ** 2"""

# One sampled row, packed as the bytes of len(COLUMNS) doubles of array("d")
_ROW = struct.Struct(f"{len(COLUMNS)}d")

# Each representation's quantum sector, from its LAYOUTS names, as the row
# writer's locals rho, rhodot, Omega, Omegadot, x2, p2 and c, by the
# operations of state_moments and state_effective_frequency.
_MOMENT_FREQUENCY = """\
Omega = half_hbar / x2
rho = sqrt(2.0 * x2 / hbar)
rhodot = 2.0 * c / (hbar * rho)
Omegadot = -4.0 * c * Omega * Omega / hbar"""
_SECTORS = {
    "pinney": """\
rho, rhodot = r, rd
inv = 1.0 / r
Omega = 1.0 / (r * r)
Omegadot = -2.0 * rd / (r * r * r) + 0.0
x2 = half_hbar * r * r
p2 = half_hbar * (rd * rd + inv * inv)
c = half_hbar * r * rd""",
    "mode": """\
f, fdot = complex(fr, fi), complex(gr, gi)
x2 = abs(f) ** 2
c = (f * fdot.conjugate()).real
p2 = abs(fdot) ** 2
""" + _MOMENT_FREQUENCY,
    "moments": _MOMENT_FREQUENCY,
}

_ROW_WRITER = """\
def make(params, rows):
    m, e, hbar = params.m, params.e, params.hbar
    m2 = m * m
    e2 = e * e
    e4 = e2 * e2
    half_hbar = 0.5 * hbar
    two_hbar = 2.0 * hbar
    neg_hbar = -hbar
    corr_scale = (hbar * e / m) ** 2
    leading_denom = 16.0 * m ** 6
    sqrt, inf = math.sqrt, math.inf
    pack, write_bytes = _ROW.pack, rows.frombytes
    def write(t, y):
        try:
            {state} = y
            {sector}
            omega = sqrt(m2 + (e * A) ** 2)
            omegadot = e2 * A * Ad / omega
            # occupation_closed_form
            ratio = omega / Omega
            d = sqrt(ratio) - sqrt(1.0 / ratio)
            Omega3 = Omega ** 3
            n_ours = 0.25 * d * d + Omegadot * Omegadot / (16.0 * omega * Omega3)
            # _quanta(vacuum_moments, drift_sheared_basis), with no
            # Heisenberg test, as in occupation_numbers
            vx2 = half_hbar / Omega
            vp2 = half_hbar * (Omega + Omegadot * Omegadot / (4.0 * Omega3))
            vc = neg_hbar * Omegadot / (4.0 * Omega * Omega)
            sigma = 0.5 * omegadot / omega
            n_cdms = ((omega * omega + sigma * sigma) * vx2 + vp2
                      + 2.0 * sigma * vc) / (two_hbar * omega) - 0.5
            # energies, occupation_difference_leading
            hx = 0.5 * (p2 + omega * omega * x2)
            if (rho > 0.0 and x2 > 0.0 and p2 > 0.0 and Omega > 0.0
                    and vx2 > 0.0 and vp2 > 0.0 and 0.0 < omega < inf):
                write_bytes(pack(t, A, Ad, rho, rhodot, Omega, Omegadot, omega,
                                 omegadot, x2, p2, c, n_ours, n_cdms,
                                 e4 * (A * Ad) ** 2 / leading_denom, hx,
                                 0.5 * Ad * Ad + hx, corr_scale * n_ours))
                return None
        except (ArithmeticError, ValueError):
            pass
        return _write_oracle_row(write_bytes, t, y, {layout!r}, params)
    return write
"""

# Each kind's template: make(params, rho_min) for all but the row writer's
# make(params, rows)
TEMPLATES = {"rhs": _RHS, "rk4": _RK4_RUN, "adaptive": _ADAPTIVE_RUN,
             "guard": _GUARD + "    return guard\n", "row": _ROW_WRITER}

_WORD = re.compile(r"\b[A-Za-z_]\w*")
_BLOCK = re.compile(r"^( *)\{(\w+)\}$", re.M)  # a field alone on its line


def _term(template, name, k):
    """template on component name and the rates k of the stages so far."""
    return template.format(y=name, **{f"k{i + 1}": kj[name]
                                      for i, kj in enumerate(k)})


def _stages(rates, stages):
    """Source lines of every stage, and k: k[j][name] is the rate of name at
    stage j + 1, a state name or the local dNAME_(j + 1).  Stage j + 1 > 1
    holds its state in NAME_(j + 1)."""
    lines, k = [], []
    named = [n for n, rate in rates.items() if not rate.isidentifier()]
    for j in range(len(stages) + 1):
        suffix = f"_{j + 1}" if j else ""
        if j:
            lines += [f"{n}{suffix} = {_term(stages[j - 1], n, k)}"
                      for n in rates]
        on_stage = partial(_WORD.sub, lambda w: w[0] + suffix
                           if w[0] in rates else w[0])
        k.append({n: f"d{n}_{j + 1}" if n in named else on_stage(rate)
                  for n, rate in rates.items()})
        lines.append(on_stage(PRELUDE))
        lines += [f"{k[j][n]} = {on_stage(rates[n])}" for n in named]
    return lines, k


@cache
def _compiled(kind, layout):
    """make(params, rho_min or rows) -> the layout's function of one kind in
    TEMPLATES, compiled once per process, with its source in linecache.
    Every kind fills its template from one table of fields, each block field
    (_BLOCK) indented to its line's column."""
    if layout not in (_SECTORS if kind == "row" else LAYOUTS):
        raise UsageError(f"unknown representation {layout!r}")
    rates, floor, reason = LAYOUTS[layout]
    names = list(rates)
    # the guard and the row writer have no stages: the rhs's go unused
    stages, suffixes, *results = TABLEAUS.get(kind, TABLEAUS["rhs"])
    lines, k = _stages(rates, stages)
    columns = [[_term(t, n, k) for n in names] for t in results]
    blocks = {"stages": lines, "keep": [f"{n}_ck = {n}" for n in names],
              "update": [f"{n}{s} = {v}" for s, c in zip(suffixes, columns)
                         for n, v in zip(names, c)],
              "norm": [_NORM_TERM.format(y=n) for n in names],
              "sector": [_SECTORS.get(layout, "")]}
    template = TEMPLATES[kind]
    indents = {name: "\n" + col for col, name in _BLOCK.findall(template)}
    source = template.format(
        layout=layout, state=", ".join(names), floor=floor, reason=reason,
        finite=" + ".join(f"{n} * 0.0" for n in names),
        checked=" + ".join(f"{n}{s} * 0.0" for s in suffixes for n in names),
        new=", ".join(n + suffixes[0] for n in names),
        results=", ".join(columns[0]),
        checkpoint=", ".join(f"{n}_ck" for n in names),
        **{name: "\n".join(block).replace("\n", indents.get(name, "\n"))
           for name, block in blocks.items()})
    return _exec(source, f"<semiosc.dynamics {kind} {layout}>")


def _exec(source, filename):
    """Run generated source, with its lines in linecache under filename, in
    this module's globals; return the make it defines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["make"]


def make_rhs(representation: str, params: ModelParams):
    """Right-hand side f(t, y) -> dy/dt on a flat layout: its LAYOUTS rates."""
    return _compiled("rhs", representation)(params, None)


def make_rk4_run(representation: str, params: ModelParams, rho_min: float):
    """rk4 run(y, h, n, sample_every, on_sample, i0=0) -> (y, abort): n
    steps after the first i0 of the grid, in one loop generated from
    LAYOUTS, the state in locals, the guard's tests inlined.

    Step i of the run ends at t = (i0 + i) * h, so a run continued from
    step i0 reports the times a run from 0 would.  After every
    sample_every-th step and the last, on_sample(t, y) may return an abort
    (status, t, reason) to stop.  A stage that raises ZeroDivisionError or
    OverflowError stops the run as a singularity at its step's start time;
    a state not finite or at the width floor, with make_guard's abort.
    Returns (y, abort): the last state reached and None, or the abort that
    stopped the run.  The floor test runs after every step, the finiteness
    test at every sampled step and the last; a state found not finite later
    than one step after such a checkpoint is retaken from it step by step,
    so the abort names the first bad step.  Bit-identical to run_fixed
    (tests/oracles.py) on partial(rk4_step, make_rhs) with make_guard after
    every step."""
    return _compiled("rk4", representation)(params, rho_min)


def make_adaptive_run(representation: str, params: ModelParams,
                      rho_min: float):
    """Fehlberg 4(5) run(y, t_end, h0, rtol, atol, sample_every, on_sample)
    -> (y, abort): one generated loop from t = 0 to t_end, from h = h0,
    controlled by the rms of the embedded error against atol + rtol * max|y|.

    on_sample works as in make_rk4_run's run, counting accepted steps; a
    time is sampled at most once.  A step that raises stops the run as a
    singularity; a step below 1e-14 * max(1, |t|), or MAX_STEP_ATTEMPTS
    accepted and rejected steps short of t_end, as a step failure; so is a
    run whose last PROGRESS_WINDOW attempts, at their rate over the attempts
    left, cannot reach t_end (checked after each window).  Bit-identical to
    run_adaptive (tests/oracles.py) on partial(rkf45_step, make_rhs) with
    make_guard."""
    return _compiled("adaptive", representation)(params, rho_min)


def make_guard(representation: str, params: ModelParams, rho_min: float):
    """Per-step check guard(t, y) -> the abort (status, t, reason) of a
    non-finite state or of one at the LAYOUTS width floor, else None."""
    return _compiled("guard", representation)(params, rho_min)


def make_row_writer(representation: str, params: ModelParams, rows):
    """on_sample(t, y) for the rk4 and adaptive runs: append the flat
    state's 18 observables, in COLUMNS order, to the array("d") rows and
    return None, or return the abort (status, t, reason) of a step failure
    and append nothing.

    The row equals record_observables(state_from_flat(t, y, representation),
    params) bit for bit: every value is computed once, by the same
    operations as the core kernels, and packed into rows in one write.  A
    state outside the kernels' domain (the one conjunction fails, or the
    arithmetic raises) is handed to record_observables itself, so the
    kernels alone hold every domain check and its message.
    """
    return _compiled("row", representation)(params, rows)


# ---------------------------------------------------------------------------
# observables and the main loop
# ---------------------------------------------------------------------------

def record_observables(state: SemiState, params: ModelParams) -> TimeSeriesRecord:
    """Every tracked observable of one state: its time-series (CSV) row."""
    omega, omegadot = frequency(state.A, state.Adot, params)
    Omega, Omegadot = state_effective_frequency(state, params)
    q = state.quantum
    mom = state_moments(state, params)
    if isinstance(q, PinneySector):
        rho, rhodot = q.rho, q.rhodot
    else:
        rho = math.sqrt(2.0 * mom.x2 / params.hbar)
        rhodot = 2.0 * mom.c / (params.hbar * rho)
    n_ours, n_cdms = occupation_numbers(state, params)
    report = energies(state, params)
    return TimeSeriesRecord(
        t=state.t, A=state.A, Adot=state.Adot,
        rho=rho, rhodot=rhodot,
        Omega=Omega, Omegadot=Omegadot, omega=omega, omegadot=omegadot,
        x2=mom.x2, p2=mom.p2, c=mom.c,
        N_ours=n_ours, N_cdms=n_cdms,
        dN_leading=occupation_difference_leading(state.A, state.Adot, params),
        Hx=report.Hx, Etot=report.Etot, corr=report.corr)


def _write_oracle_row(write_bytes, t, y, representation, params):
    """A row writer's fallback: write record_observables' row, or return the
    abort of a step failure when the state has no valid observables."""
    try:
        # a global lookup at call time: perfbench --trace 1 wraps it
        row = record_observables(state_from_flat(t, y, representation), params)
    except SemiquantumError as exc:
        return STATUS_STEPFAIL, t, f"state failed validation: {exc}"
    except ArithmeticError:
        return (STATUS_STEPFAIL, t,
                f"observables not representable: {OUT_OF_RANGE}")
    write_bytes(_ROW.pack(*row))
    return None


def fixed_grid(t_end: float, dt: float) -> tuple[int, float]:
    """The fixed step grid over [0, t_end] nearest to step dt: (n, t_end / n)."""
    n = max(1, round(t_end / dt))
    return n, t_end / n


def integrate(config: ScenarioConfig) -> Trajectory:
    """Run one scenario; returns sampled observables plus the termination status.

    On a width collapse (rho <= rho_min) or a step failure the partial
    series is returned with the abort time and reason; nothing is raised.
    A start checked_start rejects raises its DomainError.
    """
    params = config.params
    state0, row0 = checked_start(config)
    rep = config.representation
    y = flat_from_state(state0)
    rows = array("d", row0)
    sample = make_row_writer(rep, params, rows)

    if config.method == "rk4":
        n, h = fixed_grid(config.t_end, config.dt)
        run = make_rk4_run(rep, params, config.rho_min)
        _, abort = run(y, h, n, config.sample_every, sample)
    else:
        run = make_adaptive_run(rep, params, config.rho_min)
        _, abort = run(y, config.t_end, config.dt_init, config.rtol,
                       config.atol, config.sample_every, sample)
    return Trajectory(config, columns_from_rows(rows),
                      *(abort or (STATUS_COMPLETED,)))


def scenario_with(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """config with the given fields replaced, also reaching into params (m, e,
    hbar).  The result is built through the constructors, so every check of
    ScenarioConfig and ModelParams runs again."""
    param_changes = {k: changes.pop(k) for k in ("m", "e", "hbar")
                     if k in changes}
    if param_changes:
        changes["params"] = config.params._replace(**param_changes)
    return config._replace(**changes)
