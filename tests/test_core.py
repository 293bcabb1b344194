"""Kernel tests: frequency laws, moments, quanta, Bogoliubov, energies.

The quanta formula is checked against an independent wavefunction oracle:
the Gaussian state is evaluated on a grid, the annihilation operator applied
with finite-difference derivatives, and N obtained by quadrature.  Nothing in
that path shares code with the closed forms under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiosc import (
    DomainError,
    GaussianMoments,
    ModelParams,
    ModeSector,
    OscBasis,
    PinneySector,
    SemiState,
    ValidationError,
    basis_vacuum_moments,
    bogoliubov_coefficients,
    drift_sheared_basis,
    effective_frequency,
    energies,
    frequency,
    init_vacuum,
    invariant_basis,
    occupation_closed_form,
    occupation_difference_exact,
    occupation_difference_leading,
    occupation_numbers,
    pinney_residual,
    quanta_expectation,
    shearless_basis,
    state_moments,
    vacuum_moments,
)

_trapz = getattr(np, "trapezoid", None) or np.trapz


def grid_quanta(moments: GaussianMoments, basis: OscBasis, hbar: float) -> float:
    """Wavefunction-grid oracle for quanta_expectation.

    Reconstructs the pure Gaussian psi ~ exp(-(gr + i gi) x^2 / (2 hbar)) from
    the moments, applies a = [(W + i sigma) x + i p]/sqrt(2 hbar W) with the
    derivative taken by 4th-order finite differences, and integrates |a psi|^2.
    """
    gr = hbar / (2.0 * moments.x2)
    gi = -moments.c / moments.x2
    span = 10.0 * math.sqrt(moments.x2)
    x = np.linspace(-span, span, 40001)
    psi = np.exp(-(gr + 1j * gi) * x * x / (2.0 * hbar))
    norm = _trapz(np.abs(psi) ** 2, x)
    h = x[1] - x[0]
    dpsi = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * h)
    xc, pc = x[2:-2], psi[2:-2]
    apsi = ((basis.W + 1j * basis.sigma) * xc * pc + hbar * dpsi) \
        / math.sqrt(2.0 * hbar * basis.W)
    return float(_trapz(np.abs(apsi) ** 2, xc) / norm)


# ---------------------------------------------------------------------------
# parameters and fundamental types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [dict(m=0.0, e=1.0), dict(m=-1.0, e=1.0),
                                dict(m=1.0, e=-0.1), dict(m=1.0, e=1.0, hbar=0.0)])
def test_params_validation(kw):
    with pytest.raises(DomainError):
        ModelParams(**kw)


def test_moments_positivity_enforced():
    with pytest.raises(DomainError):
        GaussianMoments(x2=-0.1, p2=1.0, c=0.0)
    with pytest.raises(DomainError):
        GaussianMoments(x2=0.1, p2=0.0, c=0.0)


def test_basis_validation():
    with pytest.raises(DomainError):
        OscBasis(W=0.0)


@pytest.mark.parametrize("kernel, args, message", [
    (pinney_residual, (0.0, 0.0, 0.0, 1.0), "Omega must be positive, got 0.0"),
    (pinney_residual, (1.0, 0.0, 0.0, -1.0), "omega must be positive, got -1.0"),
    (vacuum_moments, (1.0, 0.0, 0.0), "hbar must be positive, got 0.0"),
    (basis_vacuum_moments, (OscBasis(W=1.0), -1.0),
     "hbar must be positive, got -1.0"),
    (invariant_basis, (math.nan, 0.0), "Omega must be positive, got nan"),
    (drift_sheared_basis, (0.0, 1.0), "omega must be positive, got 0.0"),
    (quanta_expectation,
     (GaussianMoments(x2=0.5, p2=0.5, c=0.0), OscBasis(W=1.0), 0.0),
     "hbar must be positive, got 0.0"),
    (occupation_difference_exact, (0.0, 0.0, 1.0, 0.0),
     "omega must be positive, got 0.0"),
    (occupation_difference_exact, (1.0, 0.0, -2.0, 0.0),
     "Omega must be positive, got -2.0"),
    (vacuum_moments, (0.0, 0.0, 1.0), "Omega must be positive, got 0.0"),
    (occupation_closed_form, (0.0, 1.0, 0.0), "omega must be positive, got 0.0"),
    (occupation_closed_form, (1.0, -1.0, 0.0),
     "Omega must be positive, got -1.0"),
    (GaussianMoments, (0.0, 1.0, 0.0), "<x^2> must be positive, got 0.0"),
    (GaussianMoments, (1.0, 0.0, 0.0), "<p^2> must be positive, got 0.0"),
    (PinneySector, (0.0, 0.0), "pinney width rho must be positive, got 0.0"),
    (effective_frequency, (0.0, 1.0), "rho must be positive, got 0.0"),
    # a vanished mode function fails GaussianMoments' own check
    (state_moments, (SemiState(0.0, 0.0, 0.0, ModeSector(0j, 1j)),
                     ModelParams(m=1.0, e=1.0)),
     "<x^2> must be positive, got 0.0"),
])
def test_kernels_name_the_argument_outside_their_domain(kernel, args, message):
    with pytest.raises(DomainError) as err:
        kernel(*args)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# frequency laws
# ---------------------------------------------------------------------------

def test_frequency_decoupled_point(unit_params):
    assert frequency(0.0, 5.0, unit_params) == (1.0, 0.0)


def test_frequency_static(unit_params):
    omega, omegadot = frequency(1.0, 0.0, unit_params)
    assert omega == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert omegadot == 0.0


def test_frequency_rate_matches_finite_difference(unit_params):
    # oracle: central difference of omega along A(t) = A + Adot t at t = 0
    A, Adot = 1.0, 1.0
    omega, omegadot = frequency(A, Adot, unit_params)
    h = 1e-6
    wp, _ = frequency(A + Adot * h, Adot, unit_params)
    wm, _ = frequency(A - Adot * h, Adot, unit_params)
    fd = (wp - wm) / (2.0 * h)
    assert omega == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert omegadot == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert omegadot == pytest.approx(fd, rel=1e-9)


def test_effective_frequency_examples():
    assert effective_frequency(1.0, 0.0) == (1.0, 0.0)
    Omega, Omegadot = effective_frequency(2.0 ** -0.25, 0.0)
    assert Omega == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert Omegadot == 0.0
    assert effective_frequency(1.0, 0.5) == (1.0, -1.0)
    with pytest.raises(DomainError):
        effective_frequency(0.0, 1.0)
    with pytest.raises(DomainError):
        effective_frequency(-1.0, 1.0)


def test_pinney_residual_examples():
    assert pinney_residual(1.0, 0.0, 0.0, 1.0) == 0.0
    assert pinney_residual(2.0, 0.0, 0.0, 1.0) == pytest.approx(3.0, abs=1e-15)


@given(rho=st.floats(0.3, 3.0), rhodot=st.floats(-3.0, 3.0),
       omega=st.floats(0.2, 5.0))
@settings(max_examples=200, deadline=None)
def test_pinney_residual_vanishes_on_width_solutions(rho, rhodot, omega):
    # substitute rhoddot = -omega^2 rho + 1/rho^3 and the chain-rule forms of
    # Omegadot, Omegaddot: the residual must collapse to zero identically
    rhoddot = -omega * omega * rho + 1.0 / rho ** 3
    Omega, Omegadot = effective_frequency(rho, rhodot)
    Omegaddot = -2.0 * rhoddot / rho ** 3 + 6.0 * rhodot * rhodot / rho ** 4
    scale = Omega * Omega + omega * omega
    assert abs(pinney_residual(Omega, Omegadot, Omegaddot, omega)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_vacuum_moments_static():
    mom = vacuum_moments(2.0, 0.0, 1.0)
    assert (mom.x2, mom.p2, mom.c) == (0.25, 1.0, 0.0)


def test_vacuum_moments_with_drift():
    mom = vacuum_moments(1.0, 2.0, 1.0)
    assert (mom.x2, mom.p2, mom.c) == (0.5, 1.0, -0.5)
    assert mom.x2 * mom.p2 - mom.c ** 2 == pytest.approx(0.25, rel=1e-15)


def test_vacuum_moments_matches_static_ground_state():
    # textbook ground state of a static oscillator at frequency sqrt(2):
    # <x^2> = hbar/(2 omega), <p^2> = hbar omega / 2, no correlation
    w = math.sqrt(2.0)
    mom = vacuum_moments(w, 0.0, 1.0)
    assert mom.x2 == pytest.approx(0.5 / w, rel=1e-15)
    assert mom.p2 == pytest.approx(0.5 * w, rel=1e-15)
    assert mom.c == 0.0
    with pytest.raises(DomainError):
        vacuum_moments(-1.0, 0.0, 1.0)


@given(Omega=st.floats(0.05, 50.0), s=st.floats(-30.0, 30.0),
       hbar=st.floats(0.05, 20.0))
@settings(max_examples=300, deadline=None)
def test_vacuum_moments_purity_identity(Omega, s, hbar):
    mom = vacuum_moments(Omega, s * Omega * Omega, hbar)
    bound = 0.25 * hbar * hbar
    assert abs(mom.x2 * mom.p2 - mom.c ** 2 - bound) <= 1e-12 * bound


def test_basis_vacuum_moments_agrees_with_invariant_basis():
    # the evolving state is exactly the vacuum of the invariant basis
    Omega, Omegadot, hbar = 1.7, -0.9, 2.0
    a = basis_vacuum_moments(invariant_basis(Omega, Omegadot), hbar)
    b = vacuum_moments(Omega, Omegadot, hbar)
    assert a.x2 == pytest.approx(b.x2, rel=1e-14)
    assert a.p2 == pytest.approx(b.p2, rel=1e-14)
    assert a.c == pytest.approx(b.c, rel=1e-14)


# ---------------------------------------------------------------------------
# quanta expectation
# ---------------------------------------------------------------------------

def test_quanta_own_vacuum_counts_zero():
    mom = vacuum_moments(2.0, 0.0, 1.0)
    assert quanta_expectation(mom, OscBasis(W=2.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_quanta_frequency_mismatch():
    mom = vacuum_moments(2.0, 0.0, 1.0)
    assert quanta_expectation(mom, OscBasis(W=1.0), 1.0) == pytest.approx(0.125, rel=1e-13)


def test_quanta_shear_mismatch():
    w = math.sqrt(2.0)
    mom = vacuum_moments(w, 0.0, 1.0)
    n = quanta_expectation(mom, OscBasis(W=w, sigma=0.25), 1.0)
    assert n == pytest.approx(0.0078125, rel=1e-13)  # sigma^2/(4 W^2) = 1/128


def test_quanta_theta_independence():
    mom = vacuum_moments(1.3, 0.7, 1.0)
    base = OscBasis(W=0.8, sigma=-0.3, theta=0.0)
    for theta in (0.1, 1.0, -4.0, 100.0):
        other = OscBasis(W=0.8, sigma=-0.3, theta=theta)
        assert quanta_expectation(mom, other, 1.0) == \
            quanta_expectation(mom, base, 1.0)


def test_quanta_rejects_heisenberg_violation():
    bad = GaussianMoments(x2=0.1, p2=0.1, c=0.0)  # det = 0.01 << 0.25
    with pytest.raises(ValidationError):
        quanta_expectation(bad, OscBasis(W=1.0), 1.0)


@given(x2=st.floats(1e-3, 1e3), cr=st.floats(-20.0, 20.0),
       excess=st.floats(1.0, 100.0), W=st.floats(0.05, 50.0),
       sr=st.floats(-3.0, 3.0), hbar=st.floats(0.1, 10.0))
@settings(max_examples=300, deadline=None)
def test_quanta_nonnegative_on_physical_moments(x2, cr, excess, W, sr, hbar):
    c = cr * hbar  # correlations on the quantum scale
    p2 = (0.25 * hbar * hbar * excess + c * c) / x2
    mom = GaussianMoments(x2=x2, p2=p2, c=c)
    basis = OscBasis(W=W, sigma=sr * W)
    n = quanta_expectation(mom, basis, hbar)
    slack = 1e-12 * ((W * W * (1 + sr * sr)) * x2 + p2
                     + 2 * abs(sr * W * c)) / (2 * hbar * W) + 1e-15
    assert n >= -slack


def test_quanta_against_grid_oracle():
    rng = np.random.default_rng(20260809)
    for _ in range(25):
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        Omega = float(np.exp(rng.uniform(-1.0, 1.0)))
        Omegadot = float(rng.uniform(-2.0, 2.0)) * Omega * Omega
        W = float(np.exp(rng.uniform(-1.0, 1.0)))
        sigma = float(rng.uniform(-1.5, 1.5)) * W
        mom = vacuum_moments(Omega, Omegadot, hbar)
        basis = OscBasis(W=W, sigma=sigma)
        n_formula = quanta_expectation(mom, basis, hbar)
        n_grid = grid_quanta(mom, basis, hbar)
        assert n_formula == pytest.approx(n_grid, abs=1e-7 * (1.0 + n_formula))


# ---------------------------------------------------------------------------
# occupation numbers
# ---------------------------------------------------------------------------

@given(omega=st.floats(0.3, 3.0), Omega=st.floats(0.3, 3.0),
       s=st.floats(-2.0, 2.0), hbar=st.floats(0.2, 5.0))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_moment_route(omega, Omega, s, hbar):
    # tolerance is relative to the occupation offset by the vacuum half
    # quantum: both routes share an exact zero where a bare ratio is ill-posed
    Omegadot = s * Omega * Omega
    a = occupation_closed_form(omega, Omega, Omegadot)
    b = quanta_expectation(vacuum_moments(Omega, Omegadot, hbar),
                           shearless_basis(omega), hbar)
    assert abs(a - b) <= 1e-12 * (0.5 + max(abs(a), abs(b)))


def test_occupation_numbers_instantaneous_vacuum(decoupled_params):
    state = init_vacuum(0.0, 0.0, decoupled_params)
    assert occupation_numbers(state, decoupled_params) == (0.0, 0.0)


def test_occupation_numbers_static_frequency_mismatch(unit_params):
    # omega = 1 (A = 0), Omega = 2 static: both definitions give 0.125
    state = SemiState(0.0, 0.0, 0.0, PinneySector(2.0 ** -0.5, 0.0))
    n_ours, n_cdms = occupation_numbers(state, unit_params)
    assert n_ours == pytest.approx(0.125, rel=1e-13)
    assert n_cdms == pytest.approx(0.125, rel=1e-13)


def test_occupation_numbers_vacuum_kick(unit_params):
    state = init_vacuum(1.0, 1.0, unit_params)
    n_ours, n_cdms = occupation_numbers(state, unit_params)
    assert n_ours == 0.0
    assert n_cdms == pytest.approx(1.0 / 128.0, abs=1e-12)


def test_occupation_difference_leading_examples():
    p1 = ModelParams(m=1.0, e=0.7, hbar=1.0)
    assert occupation_difference_leading(1.0, 0.0, p1) == 0.0
    p2 = ModelParams(m=1.0, e=0.1, hbar=1.0)
    assert occupation_difference_leading(1.0, 1.0, p2) == pytest.approx(6.25e-6, rel=1e-13)
    p3 = ModelParams(m=2.0, e=1.0, hbar=1.0)
    assert occupation_difference_leading(2.0, 3.0, p3) == pytest.approx(36.0 / 1024.0, rel=1e-13)


@given(omega=st.floats(0.3, 3.0), od=st.floats(-2.0, 2.0),
       Omega=st.floats(0.3, 3.0), s=st.floats(-2.0, 2.0),
       hbar=st.floats(0.2, 5.0))
@settings(max_examples=300, deadline=None)
def test_exact_discrepancy_identity(omega, od, Omega, s, hbar):
    # N_ours - N_cdms must equal the closed-form identity for any valid state
    omegadot = od * omega * omega
    Omegadot = s * Omega * Omega
    n_ours = occupation_closed_form(omega, Omega, Omegadot)
    n_cdms = quanta_expectation(vacuum_moments(Omega, Omegadot, hbar),
                                drift_sheared_basis(omega, omegadot), hbar)
    ident = occupation_difference_exact(omega, omegadot, Omega, Omegadot)
    assert abs((n_ours - n_cdms) - ident) <= 1e-10


# ---------------------------------------------------------------------------
# Bogoliubov coefficients
# ---------------------------------------------------------------------------

def test_bogoliubov_identity():
    b = OscBasis(W=1.3, sigma=0.4)
    assert bogoliubov_coefficients(b, b, 1.0) == (1.0, 0.0)


def test_bogoliubov_frequency_pair():
    alpha2, beta2 = bogoliubov_coefficients(OscBasis(W=2.0), OscBasis(W=1.0), 1.0)
    assert alpha2 == pytest.approx(1.125, rel=1e-14)
    assert beta2 == pytest.approx(0.125, rel=1e-14)


def test_bogoliubov_shear_pair():
    w = math.sqrt(2.0)
    alpha2, beta2 = bogoliubov_coefficients(OscBasis(W=w), OscBasis(W=w, sigma=0.25), 1.0)
    assert alpha2 == pytest.approx(1.0078125, rel=1e-14)
    assert beta2 == pytest.approx(0.0078125, rel=1e-14)


@given(W1=st.floats(0.1, 10.0), u1=st.floats(-2.0, 2.0),
       W2=st.floats(0.1, 10.0), u2=st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_bogoliubov_unitarity(W1, u1, W2, u2):
    a = OscBasis(W=W1, sigma=u1 * W1)
    b = OscBasis(W=W2, sigma=u2 * W2)
    alpha2, beta2 = bogoliubov_coefficients(a, b, 1.0)
    assert abs(alpha2 - beta2 - 1.0) <= 1e-12


@given(W1=st.floats(0.2, 5.0), u1=st.floats(-1.5, 1.5),
       W2=st.floats(0.2, 5.0), u2=st.floats(-1.5, 1.5),
       hbar=st.floats(0.2, 5.0))
@settings(max_examples=200, deadline=None)
def test_bogoliubov_beta_counts_vacuum_quanta(W1, u1, W2, u2, hbar):
    # dual route: |beta|^2 must equal the quanta of basis_b in the basis_a
    # vacuum computed through the moment machinery
    a = OscBasis(W=W1, sigma=u1 * W1)
    b = OscBasis(W=W2, sigma=u2 * W2)
    _, beta2 = bogoliubov_coefficients(a, b, hbar)
    via_moments = quanta_expectation(basis_vacuum_moments(a, hbar), b, hbar)
    assert abs(beta2 - via_moments) <= 1e-12 * (0.5 + beta2)


def test_bogoliubov_beta_against_grid_oracle():
    a = OscBasis(W=1.4, sigma=-0.5)
    b = OscBasis(W=0.7, sigma=0.9)
    _, beta2 = bogoliubov_coefficients(a, b, 1.0)
    assert beta2 == pytest.approx(grid_quanta(basis_vacuum_moments(a, 1.0), b, 1.0),
                                  abs=1e-7 * (1.0 + beta2))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_energies_vacuum_start(unit_params):
    state = init_vacuum(1.0, 0.0, unit_params)
    rep = energies(state, unit_params)
    assert rep.Hx == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-13)
    assert rep.Etot == pytest.approx(rep.Hx, rel=1e-13)


def test_energies_decoupled(decoupled_params):
    state = SemiState(0.0, 0.0, 2.0, PinneySector(1.0, 0.0))
    rep = energies(state, decoupled_params)
    assert rep.Hx == pytest.approx(0.5, rel=1e-14)
    assert rep.Etot == pytest.approx(2.5, rel=1e-14)
    assert rep.corr == 0.0


def test_energies_with_width_drift(unit_params):
    # Omega = 1, Omegadot = 2 -> rho = 1, rhodot = -1; omega = 1 at A = 0
    state = SemiState(0.0, 0.0, 0.0, PinneySector(1.0, -1.0))
    rep = energies(state, unit_params)
    assert rep.Hx == pytest.approx(0.75, rel=1e-13)
    assert rep.Etot == pytest.approx(0.75, rel=1e-13)


@given(A=st.floats(-2.0, 2.0), rho=st.floats(0.4, 2.5), rhodot=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_quantum_energy_respects_ground_state_bound(A, rho, rhodot):
    params = ModelParams(m=1.0, e=1.0, hbar=1.0)
    state = SemiState(0.0, A, 0.0, PinneySector(rho, rhodot))
    omega, _ = frequency(A, 0.0, params)
    rep = energies(state, params)
    assert rep.Hx >= 0.5 * params.hbar * omega * (1.0 - 1e-12)
