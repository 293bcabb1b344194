"""Stateless physics kernels for the semiquantum oscillator.

A classical coordinate ``A`` sets the quantum oscillator frequency through
``omega^2 = m^2 + e^2 A^2`` while the quantum variance ``<x^2>`` back-reacts
on ``A`` through the mean-field force ``-e^2 A <x^2>``.  The quantum sector
stays in a pure Gaussian state throughout, fully described by an effective
frequency ``Omega`` and its rate ``Omegadot``.  Equivalently it can be held
as an Ermakov-Pinney width ``rho = Omega**-0.5``, as a complex mode function
``f`` with fixed Wronskian, or as the second moments themselves.

Everything here is a pure function of its arguments; no mutable state.
"""

import math
from collections import namedtuple

__all__ = [
    "SemiquantumError",
    "DomainError",
    "ValidationError",
    "UsageError",
    "DiagnosticError",
    "ModelParams",
    "GaussianMoments",
    "OscBasis",
    "EnergyReport",
    "PinneySector",
    "ModeSector",
    "SemiState",
    "frequency",
    "effective_frequency",
    "pinney_residual",
    "vacuum_moments",
    "basis_vacuum_moments",
    "shearless_basis",
    "invariant_basis",
    "drift_sheared_basis",
    "quanta_expectation",
    "occupation_closed_form",
    "occupation_numbers",
    "occupation_difference_exact",
    "occupation_difference_leading",
    "bogoliubov_coefficients",
    "energies",
    "mode_wronskian",
    "state_moments",
    "state_effective_frequency",
    "validate_state",
]

# Tolerances of the "is this Gaussian state still physical" checks.  They are
# deliberately much looser than the 1e-12 algebraic tolerance: integration
# error may nibble at the Heisenberg bound, a genuinely corrupted state blows
# straight through them.
HEISENBERG_TOL = 1e-6
WRONSKIAN_TOL = 1e-6
PURITY_TOL = 1e-6


class SemiquantumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SemiquantumError, ValueError):
    """An argument left the physical domain (nonpositive width, frequency...)."""


class ValidationError(SemiquantumError, ValueError):
    """A state failed one of its representation invariants."""


class UsageError(SemiquantumError, ValueError):
    """An operation was called with structurally unusable input."""


class DiagnosticError(SemiquantumError, RuntimeError):
    """A diagnostic could not produce a trustworthy result."""


def _positive(name: str, value: float) -> None:
    """Raise DomainError naming `name` unless value > 0 (NaN fails too)."""
    if not (value > 0.0):
        raise DomainError(f"{name} must be positive, got {value}")


def _remake(cls, iterable):
    """A record's _make, and so its _replace, built through the constructor,
    so that the checks in the record's __init__ run on that path too."""
    return cls(*iterable)


# The records are immutable named tuples.  A record with checks runs them in
# __init__, after namedtuple's __new__ has bound every field.

class ModelParams(namedtuple("ModelParams", "m e hbar", defaults=(1.0,))):
    """Physical constants of the model.

    m:    bare frequency of the quantum oscillator (inverse time)
    e:    coupling strength between A and x (inverse time per unit A)
    hbar: quantum of action
    """

    __slots__ = ()
    _make = classmethod(_remake)

    def __init__(self, *_args, **_kwargs) -> None:
        if not (self.m > 0.0) or not math.isfinite(self.m):
            raise DomainError(f"m must be positive and finite, got {self.m}")
        if not (self.hbar > 0.0) or not math.isfinite(self.hbar):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")
        if self.e < 0.0 or not math.isfinite(self.e):
            raise DomainError(f"e must be nonnegative and finite, got {self.e}")


class GaussianMoments(namedtuple("GaussianMoments", "x2 p2 c")):
    """Second moments of the quantum oscillator (zero mean assumed).

    x2: <x^2>, p2: <p^2> (unit mass, so p = xdot), c: (1/2)<{x, p}>.
    """

    __slots__ = ()
    _make = classmethod(_remake)

    def __init__(self, *_args, **_kwargs) -> None:
        _positive("<x^2>", self.x2)
        _positive("<p^2>", self.p2)

    def purity_defect(self, hbar: float) -> float:
        """x2*p2 - c^2 - hbar^2/4.  Zero for a pure Gaussian state."""
        return self.x2 * self.p2 - self.c * self.c - 0.25 * hbar * hbar


class OscBasis(namedtuple("OscBasis", "W sigma theta", defaults=(0.0, 0.0))):
    """An annihilation-operator family parameterized by (W, sigma, theta).

    The operator is  a = e^{i theta} / sqrt(2 hbar W) * [(W + i sigma) x + i p].
    W is the basis frequency, sigma a shear mixing x into the momentum
    quadrature, theta an accumulated phase.  Quadratic expectations computed
    from a basis never depend on theta.
    """

    __slots__ = ()
    _make = classmethod(_remake)

    def __init__(self, *_args, **_kwargs) -> None:
        if not (self.W > 0.0) or not math.isfinite(self.W):
            raise DomainError(f"basis frequency W must be positive, got {self.W}")


class EnergyReport(namedtuple("EnergyReport", "Hx Etot corr")):
    """Mean quantum energy, total energy, and the neglected-correction estimate."""

    __slots__ = ()


class PinneySector(namedtuple("PinneySector", "rho rhodot")):
    """Quantum sector as an Ermakov-Pinney width: rho > 0 and its rate."""

    __slots__ = ()
    _make = classmethod(_remake)

    def __init__(self, *_args, **_kwargs) -> None:
        _positive("pinney width rho", self.rho)


class ModeSector(namedtuple("ModeSector", "f fdot")):
    """Quantum sector as a complex mode function f with fdot = df/dt.

    A physical mode carries Wronskian f*conj(fdot) - conj(f)*fdot = i*hbar;
    that is checked by validate_state (hbar lives in ModelParams, not here).
    """

    __slots__ = ()


class SemiState(namedtuple("SemiState", "t A Adot quantum")):
    """Instantaneous state: classical (A, Adot) plus one quantum representation
    (a PinneySector, ModeSector or GaussianMoments)."""

    __slots__ = ()

    @property
    def representation(self) -> str:
        if isinstance(self.quantum, PinneySector):
            return "pinney"
        if isinstance(self.quantum, ModeSector):
            return "mode"
        return "moments"


# ---------------------------------------------------------------------------
# frequency laws
# ---------------------------------------------------------------------------

def frequency(A: float, Adot: float, params: ModelParams) -> tuple[float, float]:
    """Instantaneous frequency omega = sqrt(m^2 + e^2 A^2) and its time rate.

    omegadot follows from the chain rule: omegadot = e^2 A Adot / omega.
    omega >= m > 0 always, so this never leaves the domain.
    """
    omega = math.sqrt(params.m * params.m + (params.e * A) ** 2)
    omegadot = params.e * params.e * A * Adot / omega
    return omega, omegadot


def effective_frequency(rho: float, rhodot: float) -> tuple[float, float]:
    """Effective frequency Omega = 1/rho^2 and Omegadot = -2 rhodot / rho^3."""
    _positive("rho", rho)
    # 1/(rho*rho) rather than (1/rho)**2: rounds back to the exact frequency
    # for vacuum-initialized widths rho = omega**-0.5.  The +0.0 flushes the
    # negative zero that -2.0 * 0.0 would otherwise print into CSV output.
    return 1.0 / (rho * rho), -2.0 * rhodot / (rho * rho * rho) + 0.0


def pinney_residual(Omega: float, Omegadot: float, Omegaddot: float,
                    omega: float) -> float:
    """Residual of the effective-frequency equation.

    Returns (1/2) Omegaddot/Omega - (3/4)(Omegadot/Omega)^2 + Omega^2 - omega^2,
    which vanishes exactly when Omega solves its governing equation, i.e. when
    rho = Omega**-0.5 solves the Ermakov-Pinney equation
    rhoddot + omega^2 rho = 1/rho^3.
    """
    _positive("Omega", Omega)
    _positive("omega", omega)
    r = Omegadot / Omega
    return 0.5 * Omegaddot / Omega - 0.75 * r * r + Omega * Omega - omega * omega


# ---------------------------------------------------------------------------
# Gaussian moments and operator bases
# ---------------------------------------------------------------------------

def vacuum_moments(Omega: float, Omegadot: float, hbar: float) -> GaussianMoments:
    """Second moments of the evolving Gaussian (the vacuum of the invariant basis).

    x2 = hbar/(2 Omega)
    p2 = (hbar/2) (Omega + Omegadot^2 / (4 Omega^3))
    c  = -hbar Omegadot / (4 Omega^2)       (= (1/2) d<x^2>/dt)

    The purity identity x2*p2 - c^2 = hbar^2/4 holds identically.
    """
    _positive("Omega", Omega)
    _positive("hbar", hbar)
    x2 = 0.5 * hbar / Omega
    p2 = 0.5 * hbar * (Omega + Omegadot * Omegadot / (4.0 * Omega ** 3))
    c = -hbar * Omegadot / (4.0 * Omega * Omega)
    return GaussianMoments(x2=x2, p2=p2, c=c)


def basis_vacuum_moments(basis: OscBasis, hbar: float) -> GaussianMoments:
    """Moments of the Gaussian state annihilated by the given basis operator.

    The wavefunction is proportional to exp(-(W + i sigma) x^2 / (2 hbar)).
    """
    _positive("hbar", hbar)
    W, s = basis.W, basis.sigma
    x2 = 0.5 * hbar / W
    p2 = 0.5 * hbar * (W * W + s * s) / W
    c = -0.5 * hbar * s / W
    return GaussianMoments(x2=x2, p2=p2, c=c)


def shearless_basis(omega: float) -> OscBasis:
    """Basis counting quanta of frequency omega with no shear (sigma = 0)."""
    return OscBasis(W=omega, sigma=0.0)


def invariant_basis(Omega: float, Omegadot: float, theta: float = 0.0) -> OscBasis:
    """The adiabatic-invariant basis: W = Omega, sigma = Omegadot / (2 Omega)."""
    _positive("Omega", Omega)
    return OscBasis(W=Omega, sigma=0.5 * Omegadot / Omega, theta=theta)


def drift_sheared_basis(omega: float, omegadot: float) -> OscBasis:
    """Basis at frequency omega sheared by the frequency drift: sigma = omegadot/(2 omega)."""
    _positive("omega", omega)
    return OscBasis(W=omega, sigma=0.5 * omegadot / omega)


def quanta_expectation(moments: GaussianMoments, basis: OscBasis,
                       hbar: float) -> float:
    """Expected quanta <a^dagger a> of the basis operator in a Gaussian state.

        N = [(W^2 + sigma^2) x2 + p2 + 2 sigma c] / (2 hbar W) - 1/2

    independent of basis.theta, and nonnegative whenever the moments satisfy
    the Heisenberg bound.  Moments that undercut the bound by more than
    HEISENBERG_TOL (relative to hbar^2/4) signal a corrupted state and raise
    ValidationError.
    """
    _positive("hbar", hbar)
    bound = 0.25 * hbar * hbar
    det = moments.x2 * moments.p2 - moments.c * moments.c
    if det < bound * (1.0 - HEISENBERG_TOL):
        raise ValidationError(
            f"moments violate the Heisenberg bound: x2*p2 - c^2 = {det}"
            f" < hbar^2/4 = {bound}")
    return _quanta(moments, basis, hbar)


def _quanta(moments: GaussianMoments, basis: OscBasis, hbar: float) -> float:
    """quanta_expectation's formula, without its Heisenberg test."""
    W, s = basis.W, basis.sigma
    return ((W * W + s * s) * moments.x2 + moments.p2
            + 2.0 * s * moments.c) / (2.0 * hbar * W) - 0.5


def occupation_closed_form(omega: float, Omega: float, Omegadot: float) -> float:
    """Occupation of the shearless omega-basis in the evolving Gaussian state.

        N = (1/4) (omega/Omega + Omega/omega + Omegadot^2/(4 omega Omega^3)) - 1/2

    evaluated in the cancellation-free form
    (1/4)(sqrt(omega/Omega) - sqrt(Omega/omega))^2 + Omegadot^2/(16 omega Omega^3),
    which is algebraically identical, manifestly nonnegative, and returns an
    exact 0.0 at the instantaneous vacuum Omega == omega, Omegadot == 0.
    """
    _positive("omega", omega)
    _positive("Omega", Omega)
    r = omega / Omega
    d = math.sqrt(r) - math.sqrt(1.0 / r)
    return 0.25 * d * d + Omegadot * Omegadot / (16.0 * omega * Omega ** 3)


def occupation_numbers(state: SemiState, params: ModelParams) -> tuple[float, float]:
    """The two competing occupation numbers for the instantaneous omega-quanta.

    Both count quanta of frequency omega(A) in the evolved Gaussian state
    (assumed to be the vacuum of the invariant basis).  N_ours uses the
    shearless operator (sigma = 0); N_cdms uses the drift-sheared operator
    (sigma = omegadot / 2 omega).  They coincide exactly while omegadot = 0.
    """
    omega, omegadot = frequency(state.A, state.Adot, params)
    Omega, Omegadot = state_effective_frequency(state, params)
    n_ours = occupation_closed_form(omega, Omega, Omegadot)
    # vacuum_moments meet the Heisenberg bound by construction; testing them
    # would test only the round-off of x2*p2 - c^2, which cancels to 0.0 for
    # a fast enough width rate
    n_cdms = _quanta(vacuum_moments(Omega, Omegadot, params.hbar),
                     drift_sheared_basis(omega, omegadot), params.hbar)
    return n_ours, n_cdms


def occupation_difference_exact(omega: float, omegadot: float,
                                Omega: float, Omegadot: float) -> float:
    """Closed form for N_ours - N_cdms, exact for any valid state:

        (1/(16 omega Omega)) [2 (Omegadot/Omega)(omegadot/omega)
                              - (omegadot/omega)^2]
    """
    _positive("omega", omega)
    _positive("Omega", Omega)
    a = Omegadot / Omega
    b = omegadot / omega
    return (2.0 * a * b - b * b) / (16.0 * omega * Omega)


def occupation_difference_leading(A: float, Adot: float,
                                  params: ModelParams) -> float:
    """Leading-order discrepancy between the two occupation definitions.

    For a slowly driven oscillator in the weak-coupling regime
    e^2 A^2 / m^2 < 1 the two numbers differ by e^4 Adot^2 A^2 / (16 m^6)
    to leading order, with corrections of order e^6.
    """
    e2 = params.e * params.e
    return e2 * e2 * (A * Adot) ** 2 / (16.0 * params.m ** 6)


def bogoliubov_coefficients(basis_a: OscBasis, basis_b: OscBasis,
                            hbar: float) -> tuple[float, float]:
    """Squared Bogoliubov coefficients relating two basis operators.

    Writing b = alpha a + beta a^dagger,

        |alpha|^2 = [(W_a + W_b)^2 + (sigma_b - sigma_a)^2] / (4 W_a W_b)
        |beta|^2  = [(W_b - W_a)^2 + (sigma_b - sigma_a)^2] / (4 W_a W_b)

    so |alpha|^2 - |beta|^2 = 1 identically, and |beta|^2 equals the quanta
    of basis_b counted in the basis_a vacuum.  Both are hbar-independent
    (the scale cancels between the two operators); hbar is accepted for
    interface symmetry with quanta_expectation.
    """
    del hbar
    W1, s1 = basis_a.W, basis_a.sigma
    W2, s2 = basis_b.W, basis_b.sigma
    ds2 = (s2 - s1) ** 2
    denom = 4.0 * W1 * W2
    alpha2 = ((W1 + W2) ** 2 + ds2) / denom
    beta2 = ((W2 - W1) ** 2 + ds2) / denom
    return alpha2, beta2


def energies(state: SemiState, params: ModelParams) -> EnergyReport:
    """Mean quantum energy, conserved total, and the neglected-correction scale.

    Hx   = (1/2)(<p^2> + omega^2 <x^2>)
    Etot = Adot^2/2 + Hx          (conserved by the mean-field evolution)
    corr = (hbar^2 e^2 / m^2) N_ours   (size of the dropped fluctuation terms)
    """
    omega, _ = frequency(state.A, state.Adot, params)
    mom = state_moments(state, params)
    hx = 0.5 * (mom.p2 + omega * omega * mom.x2)
    etot = 0.5 * state.Adot * state.Adot + hx
    n_ours, _ = occupation_numbers(state, params)
    corr = (params.hbar * params.e / params.m) ** 2 * n_ours
    return EnergyReport(Hx=hx, Etot=etot, corr=corr)


# ---------------------------------------------------------------------------
# representation plumbing
# ---------------------------------------------------------------------------

def mode_wronskian(sector: ModeSector) -> complex:
    """f*conj(fdot) - conj(f)*fdot; equals i*hbar for a physical mode."""
    return sector.f * sector.fdot.conjugate() - sector.f.conjugate() * sector.fdot


def state_moments(state: SemiState, params: ModelParams) -> GaussianMoments:
    """Second moments of the state's quantum sector, in any representation."""
    q = state.quantum
    if isinstance(q, GaussianMoments):
        return q
    if isinstance(q, PinneySector):
        h = params.hbar
        inv = 1.0 / q.rho
        return GaussianMoments(x2=0.5 * h * q.rho * q.rho,
                               p2=0.5 * h * (q.rhodot * q.rhodot + inv * inv),
                               c=0.5 * h * q.rho * q.rhodot)
    return GaussianMoments(x2=abs(q.f) ** 2,
                           p2=abs(q.fdot) ** 2,
                           c=(q.f * q.fdot.conjugate()).real)


def state_effective_frequency(state: SemiState,
                              params: ModelParams) -> tuple[float, float]:
    """(Omega, Omegadot) of the state's quantum sector.

    For pinney states this is exact; for mode/moments states it is read off
    x2 and c through Omega = hbar/(2 x2), Omegadot = -4 c Omega^2 / hbar.
    """
    q = state.quantum
    if isinstance(q, PinneySector):
        return effective_frequency(q.rho, q.rhodot)
    mom = state_moments(state, params)
    Omega = 0.5 * params.hbar / mom.x2
    Omegadot = -4.0 * mom.c * Omega * Omega / params.hbar
    return Omega, Omegadot


def validate_state(state: SemiState, params: ModelParams) -> None:
    """Check the representation invariant of the state; raise ValidationError.

    pinney: rho > 0 (already enforced at construction).
    mode:   |Wronskian - i hbar| <= WRONSKIAN_TOL * hbar.
    moments: |x2*p2 - c^2 - hbar^2/4| <= PURITY_TOL * hbar^2/4 (pure states
    only; the dynamics in this package never leaves the pure manifold).
    """
    q = state.quantum
    if isinstance(q, ModeSector):
        defect = abs(mode_wronskian(q) - 1j * params.hbar)
        if defect > WRONSKIAN_TOL * params.hbar:
            raise ValidationError(
                f"mode Wronskian off by {defect} (tolerance "
                f"{WRONSKIAN_TOL * params.hbar})")
    elif isinstance(q, GaussianMoments):
        bound = 0.25 * params.hbar * params.hbar
        defect = abs(q.purity_defect(params.hbar))
        if defect > PURITY_TOL * bound:
            raise ValidationError(
                f"moments are not a pure Gaussian state: purity defect "
                f"{defect} exceeds {PURITY_TOL * bound}")
