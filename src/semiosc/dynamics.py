"""Time evolution of the coupled classical-quantum system.

The coupled first-order system is integrated without operator splitting, in
one of three equivalent quantum-sector representations:

pinney    y = (A, Adot, rho, rhodot)          rhoddot = -omega^2 rho + 1/rho^3
mode      y = (A, Adot, Re f, Im f, Re fdot, Im fdot)   fddot = -omega^2 f
moments   y = (A, Adot, x2, c, p2)            linear moment flow

All three share the classical back-reaction Addot = -e^2 A <x^2>.  Observables
are always computed from the exact state at sample times, never interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

from .core import (
    HEISENBERG_TOL,
    DomainError,
    GaussianMoments,
    ModelParams,
    ModeSector,
    PinneySector,
    SemiState,
    SemiquantumError,
    UsageError,
    ValidationError,
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
    "derivatives",
    "convert",
    "fixed_grid",
    "integrate",
    "record_observables",
    "make_rhs",
    "make_rk4_run",
    "make_rkf45_step",
    "rk4_on",
    "make_row",
    "make_guard",
    "run_fixed",
    "run_adaptive",
    "sampler",
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

# Work bounds (cf. ODEPACK's MXSTEP): rk4 configs with more steps are
# rejected, an adaptive run stops after this many step attempts.  Both are
# over 100x the largest run of any bundled scenario, test or benchmark
# (400,000 rk4 steps, about 2,000 attempts).
MAX_RK4_STEPS = 10 ** 8
MAX_STEP_ATTEMPTS = 10 ** 7

# ScenarioConfig's float fields, which must be finite (None where optional);
# with ModelParams' m, e and hbar these are the float config keys
FLOAT_KEYS = ("A0", "Adot0", "t_end", "dt", "dt_init", "rtol", "atol",
              "rho0", "rhodot0", "rho_min")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run.

    quantum_init selects the initial quantum sector:
      vacuum    rho0 = omega(A0)**-0.5, rhodot0 = 0 (instantaneous ground state)
      explicit  rho0, rhodot0 given in the config
      adiabatic width started on the slowly-tracking solution (second
                adiabatic order), suppressing the startup oscillation that a
                plain vacuum start excites whenever omegadot(0) != 0

    method "rk4" is fixed-step classical Runge-Kutta with step dt;
    "adaptive" is an embedded 4(5) pair controlled by rtol/atol from dt_init.
    sample_every is the output stride in (accepted) steps; the initial state
    and the final state are always recorded.
    """

    params: ModelParams
    A0: float
    Adot0: float
    t_end: float
    representation: str = "pinney"
    method: str = "rk4"
    dt: float = 1e-3
    rtol: float = 1e-10
    atol: float = 1e-12
    dt_init: float = 1e-3
    sample_every: int = 10
    quantum_init: str = "vacuum"
    rho0: float | None = None
    rhodot0: float | None = None
    rho_min: float = 1e-8

    def __post_init__(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise UsageError(f"unknown representation {self.representation!r}")
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if self.quantum_init not in QUANTUM_INITS:
            raise UsageError(f"unknown quantum_init {self.quantum_init!r}")
        for key in FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value}")
        if not (self.t_end > 0.0):
            raise UsageError(f"t_end must be positive, got {self.t_end}")
        if not (self.dt > 0.0) or not (self.dt_init > 0.0):
            raise UsageError("dt and dt_init must be positive")
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
        if not (self.rtol > 0.0) or not (self.atol > 0.0):
            raise UsageError("rtol and atol must be positive")
        if self.sample_every < 1:
            raise UsageError(f"sample_every must be >= 1, got {self.sample_every}")
        if not (self.rho_min > 0.0):
            raise UsageError(f"rho_min must be positive, got {self.rho_min}")
        if self.quantum_init == "explicit":
            if self.rho0 is None or self.rhodot0 is None:
                raise UsageError("explicit quantum_init requires rho0 and rhodot0")
            if not (self.rho0 > 0.0):
                raise UsageError(f"rho0 must be positive, got {self.rho0}")


@dataclass(frozen=True)
class TimeSeriesRecord:
    """One sampled row of every observable.  Field order is the CSV schema."""

    t: float
    A: float
    Adot: float
    rho: float
    rhodot: float
    Omega: float
    Omegadot: float
    omega: float
    omegadot: float
    x2: float
    p2: float
    c: float
    N_ours: float
    N_cdms: float
    dN_leading: float
    Hx: float
    Etot: float
    corr: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, f) for f in COLUMNS)


COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(TimeSeriesRecord))


class Records:
    """Read-only row view of columnar time-series data.

    Indexing builds one TimeSeriesRecord; slicing returns another view.  Bulk
    consumers read `columns` (name -> sequence of floats) directly.
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


def row_buffer():
    """An empty flat float64 buffer for rows (see columns_from_rows)."""
    from array import array  # deferred: keeps the CLI's import chain as it was
    return array("d")


@dataclass(frozen=True)
class Trajectory:
    """Result of integrate(): sampled observables as columns (name -> array of
    float64, in COLUMNS order) plus how the run ended."""

    columns: dict
    status: str
    abort_time: float | None = None
    abort_reason: str | None = None

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
                  ) -> tuple[SemiState, tuple[float, ...]]:
    """(initial state, its observables row) of a run that can start.

    Raises DomainError naming every key the start depends on when the
    initial state or its row cannot be computed, or the row holds a
    non-finite value.
    """
    state0 = initial_state(config)
    try:
        row0 = record_observables(state0, config.params).as_row()
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
    return DomainError(f"{named}: the initial state is not representable "
                       f"({_error_text(why)})")


def _error_text(why) -> str:
    """An error as text: an OverflowError, whose str() is often an errno
    tuple, reads 'overflow: <message>'; anything else keeps str()."""
    if isinstance(why, OverflowError) and why.args:
        return f"overflow: {why.args[-1]}"
    return str(why)


# ---------------------------------------------------------------------------
# derivatives and representation conversion
# ---------------------------------------------------------------------------

def derivatives(state: SemiState, params: ModelParams):
    """Time derivative of every component, in the state's own representation.

    pinney  -> (Adot, Addot, rhodot, rhoddot)
    mode    -> (Adot, Addot, fdot, fddot)        complex quantum entries
    moments -> (Adot, Addot, dx2, dc, dp2)
    """
    rep = state.representation
    rhs = make_rhs(rep, params)
    d = rhs(state.t, flat_from_state(state))
    if rep == "mode":
        return (d[0], d[1], complex(d[2], d[3]), complex(d[4], d[5]))
    return d


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
    if state.representation == "pinney":
        rho, rhodot = state.quantum.rho, state.quantum.rhodot
    else:
        mom = state_moments(state, params)
        rho = math.sqrt(2.0 * mom.x2 / h)
        rhodot = 2.0 * mom.c / (h * rho)
    if target == "pinney":
        quantum = PinneySector(rho, rhodot)
    elif target == "mode":
        amp = math.sqrt(0.5 * h)
        quantum = ModeSector(complex(amp * rho, 0.0),
                             complex(amp * rhodot, -amp / rho))
    else:
        inv = 1.0 / rho
        quantum = GaussianMoments(x2=0.5 * h * rho * rho,
                                  p2=0.5 * h * (rhodot * rhodot + inv * inv),
                                  c=0.5 * h * rho * rhodot)
    return SemiState(state.t, state.A, state.Adot, quantum)


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


def make_rhs(representation: str, params: ModelParams):
    """Right-hand side f(t, y) -> dy/dt on the flat layout, as a fast closure."""
    m2 = params.m * params.m
    e2 = params.e * params.e
    half_hbar = 0.5 * params.hbar
    if representation == "pinney":
        def rhs(t, y):
            A, Ad, r, rd = y
            w2 = m2 + e2 * A * A
            return (Ad, -e2 * A * half_hbar * r * r, rd, 1.0 / (r * r * r) - w2 * r)
    elif representation == "mode":
        def rhs(t, y):
            A, Ad, fr, fi, gr, gi = y
            w2 = m2 + e2 * A * A
            return (Ad, -e2 * A * (fr * fr + fi * fi), gr, gi, -w2 * fr, -w2 * fi)
    elif representation == "moments":
        def rhs(t, y):
            A, Ad, x2, c, p2 = y
            w2 = m2 + e2 * A * A
            return (Ad, -e2 * A * x2, 2.0 * c, p2 - w2 * x2, -2.0 * w2 * c)
    elif representation == "augmented":  # moments + a pinney (rho, rhodot)
        moments, pinney = make_rhs("moments", params), make_rhs("pinney", params)

        def rhs(t, y):
            return moments(t, y[:5]) + pinney(t, (y[0], y[1], y[5], y[6]))[2:]
    else:
        raise UsageError(f"unknown representation {representation!r}")
    return rhs


def make_guard(representation: str, params: ModelParams, rho_min: float):
    """Per-step sanity check: returns (status, reason) to abort, else None.

    The Pinney width floor translates to <x^2> <= hbar rho_min^2 / 2 in the
    other representations.
    """
    isfinite = math.isfinite
    index, floor = 2, 0.5 * params.hbar * rho_min * rho_min
    reason = "<x^2> fell to the width floor at t={t}"
    if representation == "pinney" or representation == "augmented":
        index = 2 if representation == "pinney" else 5
        floor, reason = rho_min, "rho = {w} fell to the floor {floor} at t={t}"

    def guard(t, y):
        for v in y:
            if not isfinite(v):
                return (STATUS_STEPFAIL, f"non-finite state component at t={t}")
        if y[index] <= floor:
            return (STATUS_SINGULARITY, reason.format(w=y[index], floor=floor, t=t))
        return None

    def mode_guard(t, y):
        for v in y:
            if not isfinite(v):
                return (STATUS_STEPFAIL, f"non-finite state component at t={t}")
        if y[2] * y[2] + y[3] * y[3] <= floor:
            return (STATUS_SINGULARITY, reason.format(t=t))
        return None

    return mode_guard if representation == "mode" else guard


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

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


def rk4_on(rhs):
    """step(t, y, h) for run_fixed: rk4_step on a generic right-hand side."""
    return partial(rk4_step, rhs)


def make_rk4_run(representation: str, params: ModelParams, rho_min=None):
    """rk4 run(y, h, n, sample_every=1, on_sample=None, t0=0.0) -> (y, abort)
    with run_fixed's contract, guarded by make_guard when rho_min is given.

    For pinney, one loop with the step and the guard inlined: rk4_step's
    operations on make_rhs("pinney") in order (P = Adot, r = rho, s = rhodot;
    in pairs, as wider tuple assignments build tuples), one isfinite (x * 0.0
    is nan exactly when x is not finite).  Else run_fixed on rk4_on(make_rhs).
    """
    guard = None if rho_min is None else make_guard(representation, params, rho_min)
    if representation != "pinney":
        step = rk4_on(make_rhs(representation, params))

        def run(y, h, n, sample_every=1, on_sample=None, t0=0.0):
            return run_fixed(step, y, h, n, sample_every, guard, on_sample, t0)
        return run
    m2, e2, half_hbar = params.m * params.m, params.e * params.e, 0.5 * params.hbar
    ne2, isfinite = -e2, math.isfinite

    def run(y, h, n, sample_every=1, on_sample=None, t0=0.0):
        A, P, r, s = y
        hh, six = 0.5 * h, h / 6.0
        for i in range(1, n + 1):
            try:
                dP1 = ne2 * A * half_hbar * r * r
                ds1 = 1.0 / (r * r * r) - (m2 + e2 * A * A) * r
                A2, P2 = A + hh * P, P + hh * dP1
                r2, s2 = r + hh * s, s + hh * ds1
                dP2 = ne2 * A2 * half_hbar * r2 * r2
                ds2 = 1.0 / (r2 * r2 * r2) - (m2 + e2 * A2 * A2) * r2
                A3, P3 = A + hh * P2, P + hh * dP2
                r3, s3 = r + hh * s2, s + hh * ds2
                dP3 = ne2 * A3 * half_hbar * r3 * r3
                ds3 = 1.0 / (r3 * r3 * r3) - (m2 + e2 * A3 * A3) * r3
                A4, P4 = A + h * P3, P + h * dP3
                r4, s4 = r + h * s3, s + h * ds3
                dP4 = ne2 * A4 * half_hbar * r4 * r4
                ds4 = 1.0 / (r4 * r4 * r4) - (m2 + e2 * A4 * A4) * r4
            except (ZeroDivisionError, OverflowError):
                return (A, P, r, s), (STATUS_SINGULARITY, t0 + (i - 1) * h if i > 1
                                      else t0, "singular right-hand side evaluation")
            A, P = (A + six * (P + 2.0 * (P2 + P3) + P4),
                    P + six * (dP1 + 2.0 * (dP2 + dP3) + dP4))
            r, s = (r + six * (s + 2.0 * (s2 + s3) + s4),
                    s + six * (ds1 + 2.0 * (ds2 + ds3) + ds4))
            if guard is not None and (
                    not isfinite(A * 0.0 + P * 0.0 + r * 0.0 + s * 0.0) or r <= rho_min):
                t = t0 + i * h
                status, reason = guard(t, (A, P, r, s))
                return (A, P, r, s), (status, t, reason)
            if on_sample is not None and (i % sample_every == 0 or i == n):
                t = t0 + i * h
                hit = on_sample(t, (A, P, r, s))
                if hit is not None:
                    return (A, P, r, s), (hit[0], t, hit[1])
        return (A, P, r, s), None

    return run


def make_rkf45_step(representation: str, params: ModelParams):
    """Fehlberg 4(5) step(t, y, h) -> (y5, err) for one representation.

    The mode step is unrolled by hand like the pinney rk4 run: it performs
    exactly the floating-point operations of rkf45_step with
    make_rhs("mode", params), in the same order (bNN, cN and dN are its
    folded coefficients), so its result is bit-identical.  Stage states carry
    the suffixes 2-6 and stage rates 1-6: the rate of A is the stage's P =
    Adot, that of f = (fr, fi) is g = (gr, gi) = fdot, and those of P and g
    are a and (u, v) = -omega^2 f.  The other representations call
    rkf45_step on make_rhs.
    """
    if representation != "mode":
        return partial(rkf45_step, make_rhs(representation, params))
    m2 = params.m * params.m
    e2 = params.e * params.e
    ne2 = -e2
    b41, b42, b43 = 1932.0 / 2197.0, 7200.0 / 2197.0, 7296.0 / 2197.0
    b51, b53, b54 = 439.0 / 216.0, 3680.0 / 513.0, 845.0 / 4104.0
    b61, b63, b64, b65 = -8.0 / 27.0, 3544.0 / 2565.0, 1859.0 / 4104.0, 11.0 / 40.0
    c1, c3, c4, c5 = 16.0 / 135.0, 6656.0 / 12825.0, 28561.0 / 56430.0, 9.0 / 50.0
    c6, d3, d4 = 2.0 / 55.0, 128.0 / 4275.0, 2197.0 / 75240.0

    def step(t, y, h):
        A, P, fr, fi, gr, gi = y
        w2 = m2 + e2 * A * A
        a1, u1, v1 = ne2 * A * (fr * fr + fi * fi), -w2 * fr, -w2 * fi
        q = 0.25 * h
        A2, P2, fr2, fi2, gr2, gi2 = (A + q * P, P + q * a1, fr + q * gr,
                                      fi + q * gi, gr + q * u1, gi + q * v1)
        w2 = m2 + e2 * A2 * A2
        a2, u2, v2 = ne2 * A2 * (fr2 * fr2 + fi2 * fi2), -w2 * fr2, -w2 * fi2
        A3 = A + h * (0.09375 * P + 0.28125 * P2)
        P3 = P + h * (0.09375 * a1 + 0.28125 * a2)
        fr3 = fr + h * (0.09375 * gr + 0.28125 * gr2)
        fi3 = fi + h * (0.09375 * gi + 0.28125 * gi2)
        gr3 = gr + h * (0.09375 * u1 + 0.28125 * u2)
        gi3 = gi + h * (0.09375 * v1 + 0.28125 * v2)
        w2 = m2 + e2 * A3 * A3
        a3, u3, v3 = ne2 * A3 * (fr3 * fr3 + fi3 * fi3), -w2 * fr3, -w2 * fi3
        A4 = A + h * (b41 * P - b42 * P2 + b43 * P3)
        P4 = P + h * (b41 * a1 - b42 * a2 + b43 * a3)
        fr4 = fr + h * (b41 * gr - b42 * gr2 + b43 * gr3)
        fi4 = fi + h * (b41 * gi - b42 * gi2 + b43 * gi3)
        gr4 = gr + h * (b41 * u1 - b42 * u2 + b43 * u3)
        gi4 = gi + h * (b41 * v1 - b42 * v2 + b43 * v3)
        w2 = m2 + e2 * A4 * A4
        a4, u4, v4 = ne2 * A4 * (fr4 * fr4 + fi4 * fi4), -w2 * fr4, -w2 * fi4
        A5 = A + h * (b51 * P - 8.0 * P2 + b53 * P3 - b54 * P4)
        P5 = P + h * (b51 * a1 - 8.0 * a2 + b53 * a3 - b54 * a4)
        fr5 = fr + h * (b51 * gr - 8.0 * gr2 + b53 * gr3 - b54 * gr4)
        fi5 = fi + h * (b51 * gi - 8.0 * gi2 + b53 * gi3 - b54 * gi4)
        gr5 = gr + h * (b51 * u1 - 8.0 * u2 + b53 * u3 - b54 * u4)
        gi5 = gi + h * (b51 * v1 - 8.0 * v2 + b53 * v3 - b54 * v4)
        w2 = m2 + e2 * A5 * A5
        a5, u5, v5 = ne2 * A5 * (fr5 * fr5 + fi5 * fi5), -w2 * fr5, -w2 * fi5
        A6 = A + h * (b61 * P + 2.0 * P2 - b63 * P3 + b64 * P4 - b65 * P5)
        P6 = P + h * (b61 * a1 + 2.0 * a2 - b63 * a3 + b64 * a4 - b65 * a5)
        fr6 = fr + h * (b61 * gr + 2.0 * gr2 - b63 * gr3 + b64 * gr4 - b65 * gr5)
        fi6 = fi + h * (b61 * gi + 2.0 * gi2 - b63 * gi3 + b64 * gi4 - b65 * gi5)
        gr6 = gr + h * (b61 * u1 + 2.0 * u2 - b63 * u3 + b64 * u4 - b65 * u5)
        gi6 = gi + h * (b61 * v1 + 2.0 * v2 - b63 * v3 + b64 * v4 - b65 * v5)
        w2 = m2 + e2 * A6 * A6
        a6, u6, v6 = ne2 * A6 * (fr6 * fr6 + fi6 * fi6), -w2 * fr6, -w2 * fi6
        return ((A + h * (c1 * P + c3 * P3 + c4 * P4 - c5 * P5 + c6 * P6),
                 P + h * (c1 * a1 + c3 * a3 + c4 * a4 - c5 * a5 + c6 * a6),
                 fr + h * (c1 * gr + c3 * gr3 + c4 * gr4 - c5 * gr5 + c6 * gr6),
                 fi + h * (c1 * gi + c3 * gi3 + c4 * gi4 - c5 * gi5 + c6 * gi6),
                 gr + h * (c1 * u1 + c3 * u3 + c4 * u4 - c5 * u5 + c6 * u6),
                 gi + h * (c1 * v1 + c3 * v3 + c4 * v4 - c5 * v5 + c6 * v6)),
                (h * (P / 360.0 - d3 * P3 - d4 * P4 + P5 / 50.0 + c6 * P6),
                 h * (a1 / 360.0 - d3 * a3 - d4 * a4 + a5 / 50.0 + c6 * a6),
                 h * (gr / 360.0 - d3 * gr3 - d4 * gr4 + gr5 / 50.0 + c6 * gr6),
                 h * (gi / 360.0 - d3 * gi3 - d4 * gi4 + gi5 / 50.0 + c6 * gi6),
                 h * (u1 / 360.0 - d3 * u3 - d4 * u4 + u5 / 50.0 + c6 * u6),
                 h * (v1 / 360.0 - d3 * v3 - d4 * v4 + v5 / 50.0 + c6 * v6)))

    return step


# ---------------------------------------------------------------------------
# observables and the main loop
# ---------------------------------------------------------------------------

def record_observables(state: SemiState, params: ModelParams) -> TimeSeriesRecord:
    """Every tracked observable of one state, as a time-series row."""
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


def make_row(representation: str, params: ModelParams):
    """Flat observables row(t, y) -> tuple in COLUMNS order.

    The row equals record_observables(state_from_flat(t, y, representation),
    params).as_row() bit for bit, and raises the same exception on the same
    states: every value is computed once, by the same operations as the core
    kernels, with their domain checks in the order the oracle meets them.
    """
    m, e, hbar = params.m, params.e, params.hbar
    m2 = m * m
    e2 = e * e
    e4 = e2 * e2
    half_hbar = 0.5 * hbar
    two_hbar = 2.0 * hbar
    neg_hbar = -hbar
    bound = 0.25 * hbar * hbar
    heisenberg_floor = bound * (1.0 - HEISENBERG_TOL)
    corr_scale = (hbar * e / m) ** 2
    leading_denom = 16.0 * m ** 6
    sqrt, isfinite = math.sqrt, math.isfinite

    def finish(t, A, Ad, rho, rhodot, Omega, Omegadot, omega, omegadot,
               x2, p2, c):
        # occupation_closed_form
        if not (omega > 0.0):
            raise DomainError(f"omega must be positive, got {omega}")
        if not (Omega > 0.0):
            raise DomainError(f"Omega must be positive, got {Omega}")
        r = omega / Omega
        d = sqrt(r) - sqrt(1.0 / r)
        Omega3 = Omega ** 3
        n_ours = 0.25 * d * d + Omegadot * Omegadot / (16.0 * omega * Omega3)
        # quanta_expectation(vacuum_moments, drift_sheared_basis)
        vx2 = half_hbar / Omega
        vp2 = half_hbar * (Omega + Omegadot * Omegadot / (4.0 * Omega3))
        vc = neg_hbar * Omegadot / (4.0 * Omega * Omega)
        if not (vx2 > 0.0):
            raise DomainError(f"<x^2> must be positive, got {vx2}")
        if not (vp2 > 0.0):
            raise DomainError(f"<p^2> must be positive, got {vp2}")
        sigma = 0.5 * omegadot / omega
        if not isfinite(omega):
            raise DomainError(f"basis frequency W must be positive, got {omega}")
        det = vx2 * vp2 - vc * vc
        if det < heisenberg_floor:
            raise ValidationError(
                f"moments violate the Heisenberg bound: x2*p2 - c^2 = {det}"
                f" < hbar^2/4 = {bound}")
        n_cdms = ((omega * omega + sigma * sigma) * vx2 + vp2
                  + 2.0 * sigma * vc) / (two_hbar * omega) - 0.5
        # energies, occupation_difference_leading
        hx = 0.5 * (p2 + omega * omega * x2)
        return (t, A, Ad, rho, rhodot, Omega, Omegadot, omega, omegadot,
                x2, p2, c, n_ours, n_cdms, e4 * (A * Ad) ** 2 / leading_denom,
                hx, 0.5 * Ad * Ad + hx, corr_scale * n_ours)

    if representation == "pinney":
        def row(t, y):
            A, Ad, rho, rhodot = y
            if not (rho > 0.0):
                raise DomainError(f"pinney width rho must be positive, got {rho}")
            omega = sqrt(m2 + (e * A) ** 2)
            omegadot = e2 * A * Ad / omega
            Omega = 1.0 / (rho * rho)
            Omegadot = -2.0 * rhodot / (rho * rho * rho) + 0.0
            inv = 1.0 / rho
            x2 = half_hbar * rho * rho
            p2 = half_hbar * (rhodot * rhodot + inv * inv)
            c = half_hbar * rho * rhodot
            if not (x2 > 0.0):
                raise DomainError(f"<x^2> must be positive, got {x2}")
            if not (p2 > 0.0):
                raise DomainError(f"<p^2> must be positive, got {p2}")
            return finish(t, A, Ad, rho, rhodot, Omega, Omegadot, omega,
                          omegadot, x2, p2, c)
    elif representation in ("mode", "moments"):
        is_mode = representation == "mode"

        def row(t, y):
            A = y[0]
            Ad = y[1]
            if is_mode:
                f = complex(y[2], y[3])
                fdot = complex(y[4], y[5])
            else:
                x2, c, p2 = y[2], y[3], y[4]
                if not (x2 > 0.0):
                    raise DomainError(f"<x^2> must be positive, got {x2}")
                if not (p2 > 0.0):
                    raise DomainError(f"<p^2> must be positive, got {p2}")
            omega = sqrt(m2 + (e * A) ** 2)
            omegadot = e2 * A * Ad / omega
            if is_mode:
                x2 = abs(f) ** 2
                if not (x2 > 0.0):
                    raise DomainError("mode function vanished; <x^2> must be positive")
                p2 = abs(fdot) ** 2
                c = (f * fdot.conjugate()).real
                if not (p2 > 0.0):
                    raise DomainError(f"<p^2> must be positive, got {p2}")
            Omega = half_hbar / x2
            Omegadot = -4.0 * c * Omega * Omega / hbar
            rho = sqrt(2.0 * x2 / hbar)
            return finish(t, A, Ad, rho, 2.0 * c / (hbar * rho), Omega,
                          Omegadot, omega, omegadot, x2, p2, c)
    else:
        raise UsageError(f"unknown representation {representation!r}")
    return row


def fixed_grid(t_end: float, dt: float) -> tuple[int, float]:
    """The fixed step grid over [0, t_end] nearest to step dt: (n, t_end / n)."""
    n = max(1, round(t_end / dt))
    return n, t_end / n


def run_fixed(step, y, h, n, sample_every=1, guard=None, on_sample=None,
              t0=0.0):
    """The fixed-step loop: n steps y <- step(t, y, h) from t0.

    Step i ends at t0 + i*h.  After each step guard(t, y) may return
    (status, reason) to stop; after every sample_every-th step and the last
    one so may on_sample(t, y).  A step that raises ZeroDivisionError or
    OverflowError stops the run as a singularity at the step's start time.
    Returns (y, abort): the last state reached and None, or the abort as
    (status, t, reason).
    """
    t = t0
    for i in range(1, n + 1):
        try:
            y = step(t, y, h)
        except (ZeroDivisionError, OverflowError):
            return y, (STATUS_SINGULARITY, t, "singular right-hand side evaluation")
        t = t0 + i * h
        if guard is not None:
            hit = guard(t, y)
            if hit is not None:
                return y, (hit[0], t, hit[1])
        if on_sample is not None and (i % sample_every == 0 or i == n):
            hit = on_sample(t, y)
            if hit is not None:
                return y, (hit[0], t, hit[1])
    return y, None


def run_adaptive(step, y, t_end, h0, rtol, atol, sample_every, guard,
                 on_sample):
    """The adaptive loop: embedded steps (y5, err) = step(t, y, h) from
    t = 0 to t_end, from h = h0, controlled by the rms of err against
    atol + rtol * max|y|.

    guard and on_sample work as in run_fixed, counting accepted steps; a
    time is sampled at most once.  A step that raises stops the run as a
    singularity; a step below 1e-14 * max(1, |t|), or MAX_STEP_ATTEMPTS
    accepted and rejected steps short of t_end, as a step failure.  Returns
    (y, abort) as run_fixed does.
    """
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    width = len(y)
    t = 0.0
    h = min(h0, t_end)
    accepted = attempts = 0
    last_sampled_t = 0.0
    while t < t_end:
        if attempts == MAX_STEP_ATTEMPTS:
            return y, (STATUS_STEPFAIL, t, f"{attempts} step attempts did not "
                       f"reach t_end = {t_end}")
        attempts += 1
        clamped = h >= t_end - t
        if clamped:
            h = t_end - t
        try:
            ynew, err = step(t, y, h)
        except (ZeroDivisionError, OverflowError):
            return y, (STATUS_SINGULARITY, t, "singular right-hand side evaluation")
        enorm = inf
        try:
            acc = 0.0
            for e, a, b in zip(err, y, ynew):
                if not (isfinite(e) and isfinite(b)):
                    break
                acc += (e / (atol + rtol * max(abs(a), abs(b)))) ** 2
            else:
                enorm = sqrt(acc / width)
        except OverflowError:
            pass
        if enorm > 1.0:
            h *= 0.2 if not isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)):
                return y, (STATUS_STEPFAIL, t, f"step size underflow at t={t}")
            continue
        t = t_end if clamped else t + h
        y = ynew
        accepted += 1
        hit = guard(t, y)
        if hit is None and (accepted % sample_every == 0
                            or t >= t_end) and t != last_sampled_t:
            hit = on_sample(t, y)
            last_sampled_t = t
        if hit is not None:
            return y, (hit[0], t, hit[1])
        if enorm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        else:
            h *= 5.0
    return y, None


def sampler(row, sink):
    """on_sample for run_fixed and run_adaptive: sink(row(t, y)), or a step
    failure when the state has no valid observables."""
    def on_sample(t, y):
        try:
            sink(row(t, y))
        except SemiquantumError as exc:
            return STATUS_STEPFAIL, f"state failed validation: {exc}"
        except ArithmeticError as exc:
            return (STATUS_STEPFAIL,
                    f"observables not representable: {_error_text(exc)}")
        return None
    return on_sample


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
    rows = row_buffer()
    rows.extend(row0)
    sample = sampler(make_row(rep, params), rows.extend)

    if config.method == "rk4":
        n, h = fixed_grid(config.t_end, config.dt)
        run = make_rk4_run(rep, params, config.rho_min)
        _, abort = run(y, h, n, config.sample_every, sample)
    else:
        _, abort = run_adaptive(make_rkf45_step(rep, params), y, config.t_end,
                                config.dt_init, config.rtol, config.atol,
                                config.sample_every,
                                make_guard(rep, params, config.rho_min), sample)
    return Trajectory(columns_from_rows(rows), *(abort or (STATUS_COMPLETED,)))


def scenario_with(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """dataclasses.replace that also reaches into params (m, e, hbar)."""
    param_changes = {k: changes.pop(k) for k in ("m", "e", "hbar")
                     if k in changes}
    if param_changes:
        changes["params"] = replace(config.params, **param_changes)
    return replace(config, **changes)
