"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test measures its own wall-clock time against the stated
budget; all numerical tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from semiosc import (
    ModelParams,
    OscBasis,
    ScenarioConfig,
    adiabatic_invariant_drift,
    bogoliubov_coefficients,
    energy_drift,
    init_vacuum,
    integrate,
    linear_test_order,
    load_scenario,
    lyapunov_max,
    occupation_closed_form,
    occupation_difference_exact,
    occupation_numbers,
    quanta_expectation,
    scenario_with,
    shearless_basis,
    vacuum_moments,
)
from semiosc.cli import run_sweep


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"[criterion {num:02d}] {status} {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_01_closed_form_occupation_oracle():
    # 1000 randomized (Omega, Omegadot, omega) triples: the closed form must
    # match the moment-based route to 1e-12 relative.  The relative measure
    # uses the occupation offset by the vacuum half-quantum as denominator:
    # both routes share an exact zero, where a bare ratio is ill-posed.
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        omega = float(np.exp(rng.uniform(-1.2, 1.2)))
        Omega = float(np.exp(rng.uniform(-1.2, 1.2)))
        Omegadot = float(rng.uniform(-2.0, 2.0)) * Omega * Omega
        a = occupation_closed_form(omega, Omega, Omegadot)
        b = quanta_expectation(vacuum_moments(Omega, Omegadot, 1.0),
                               shearless_basis(omega), 1.0)
        worst = max(worst, abs(a - b) / (0.5 + max(abs(a), abs(b))))
    elapsed = time.perf_counter() - start
    _criterion(1, "closed-form occupation matches moment route (1000 samples)",
               worst <= 1e-12 and elapsed < 1.0,
               f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_vacuum_kick_spot_values():
    start = time.perf_counter()
    params = ModelParams(m=1.0, e=1.0, hbar=1.0)
    n_ours, n_cdms = occupation_numbers(init_vacuum(1.0, 1.0, params), params)
    elapsed = time.perf_counter() - start
    ok = n_ours == 0.0 and abs(n_cdms - 1.0 / 128.0) <= 1e-12 and elapsed < 1.0
    _criterion(2, "vacuum-kick start: N_ours = 0 exactly, N_cdms = 1/128",
               ok, f"N_ours={n_ours!r}, N_cdms={n_cdms!r}, {elapsed:.2f}s")


def test_criterion_03_energy_conservation():
    start = time.perf_counter()
    cfg = load_scenario("vacuum-kick")  # rk4, dt = 1e-3, t_end = 100
    drift = energy_drift(integrate(cfg).columns)
    drift_half = energy_drift(integrate(scenario_with(cfg, dt=5e-4)).columns)
    ratio = drift / drift_half
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-7 and 10.0 <= ratio <= 22.0 and elapsed < 30.0
    _criterion(3, "Etot drift <= 1e-7 at dt=1e-3 over t=100; halving ratio in [10,22]",
               ok, f"drift {drift:.2e}, ratio {ratio:.1f}, {elapsed:.1f}s")


def test_criterion_04_representation_equivalence():
    # same scenario in all three representations; <x^2>(t) must agree
    # pointwise to 1e-8 relative at every shared sample over t_end = 50
    start = time.perf_counter()
    cfg = scenario_with(load_scenario("vacuum-kick"), t_end=50.0,
                        dt=2.5e-4, sample_every=200)
    runs = [integrate(scenario_with(cfg, representation=rep))
            for rep in ("pinney", "mode", "moments")]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            for ra, rb in zip(runs[a].records, runs[b].records):
                worst = max(worst, abs(ra.x2 - rb.x2) / abs(ra.x2))
    elapsed = time.perf_counter() - start
    ok = all(t.completed for t in runs) and worst <= 1e-8 and elapsed < 60.0
    _criterion(4, "pinney/mode/moments agree on <x^2>(t) to 1e-8 over t=50",
               ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_adiabatic_invariant():
    start = time.perf_counter()
    drift = adiabatic_invariant_drift(load_scenario("vacuum-kick"))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-6 and elapsed < 30.0
    _criterion(5, "invariant-basis quanta stay within 1e-6 of zero over t=100",
               ok, f"max |N| {drift:.2e}, {elapsed:.1f}s")


def test_criterion_06_exact_discrepancy_identity():
    # along real trajectories, N_ours - N_cdms must match the closed-form
    # identity in (omega, omegadot, Omega, Omegadot) to 1e-10 absolute
    worst = 0.0
    for name, t_end in (("vacuum-kick", 10.0), ("strong", 5.0)):
        cfg = scenario_with(load_scenario(name), t_end=t_end, sample_every=1)
        for r in integrate(cfg).records:
            ident = occupation_difference_exact(r.omega, r.omegadot,
                                                r.Omega, r.Omegadot)
            worst = max(worst, abs((r.N_ours - r.N_cdms) - ident))
    _criterion(6, "N_ours - N_cdms equals the exact shear identity (1e-10 abs)",
               worst <= 1e-10, f"worst abs dev {worst:.2e}")


def test_criterion_07_leading_order_law(tmp_path):
    # the sweep command's coupling study: its fitted power, and each leg's
    # remainder read back from the report it wrote
    start = time.perf_counter()
    sweep = tmp_path / "coupling.sweep"
    sweep.write_text("base = adiabatic\naxis = e\nvalues = 0.2, 0.1, 0.05\n")
    manifest = run_sweep(str(sweep), str(tmp_path / "sw"))
    power = manifest["outputs"]["discrepancy_power"]
    remainders = []
    for leg in manifest["outputs"]["legs"]:
        with open(leg["diagnostics_json"], encoding="utf-8") as fh:
            remainders.append(json.load(fh)["max_abs_remainder"])
    ratios = [remainders[i] / remainders[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - start
    power_ok = power is not None and 3.7 <= power <= 4.3
    # remainder after subtracting the leading term scales like the next
    # order, e^6: a factor 64 per coupling octave, within a factor 5
    rem_ok = all(64.0 / 5.0 <= r <= 64.0 * 5.0 for r in ratios)
    ok = (power_ok and rem_ok and manifest["warnings"] == []
          and elapsed < 120.0)
    _criterion(7, "discrepancy scales as e^4; remainder consistent with e^6",
               ok, f"power {power:.3f}, remainder ratios "
                   f"{ratios[0]:.1f}/{ratios[1]:.1f} per octave, {elapsed:.1f}s")


def test_criterion_08_trivial_limits():
    # decoupled runs: exactly linear A(t), identically zero occupations;
    # off-vacuum constant-frequency width matches the analytic oscillation
    free = integrate(load_scenario("free"))
    linear_ok = all(abs(r.A - r.t) <= 1e-12 * max(1.0, abs(r.t))
                    for r in free.records)
    zero_ok = all(abs(r.N_ours) <= 1e-12 and abs(r.N_cdms) <= 1e-12
                  for r in free.records)
    params = ModelParams(m=1.0, e=0.0, hbar=1.0)
    cfg = ScenarioConfig(params=params, A0=0.0, Adot0=0.0, t_end=10.0,
                         dt=1e-3, sample_every=10, quantum_init="explicit",
                         rho0=1.2, rhodot0=0.0)
    worst = 0.0
    for r in integrate(cfg).records:
        x2_exact = 0.5 * ((1.2 * math.cos(r.t)) ** 2 + (math.sin(r.t) / 1.2) ** 2)
        worst = max(worst, abs(r.x2 - x2_exact) / x2_exact)
    ok = linear_ok and zero_ok and worst <= 1e-8
    _criterion(8, "decoupled limits: linear A(t), zero N, analytic width",
               ok, f"width dev {worst:.2e}")


def test_criterion_09_bogoliubov_unitarity():
    start = time.perf_counter()
    rng = np.random.default_rng(11235813)
    worst = 0.0
    for _ in range(1000):
        W1 = float(np.exp(rng.uniform(-1.15, 1.15)))
        W2 = float(np.exp(rng.uniform(-1.15, 1.15)))
        s1 = float(rng.uniform(-2.0, 2.0)) * W1
        s2 = float(rng.uniform(-2.0, 2.0)) * W2
        alpha2, beta2 = bogoliubov_coefficients(OscBasis(W=W1, sigma=s1),
                                                OscBasis(W=W2, sigma=s2), 1.0)
        worst = max(worst, abs(alpha2 - beta2 - 1.0))
    elapsed = time.perf_counter() - start
    _criterion(9, "alpha^2 - beta^2 = 1 to 1e-12 on 1000 basis pairs",
               worst <= 1e-12 and elapsed < 10.0,
               f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_diagnostics_self_tests():
    order = linear_test_order()
    est = lyapunov_max(scenario_with(load_scenario("free"), t_end=50.0))
    ok = 3.7 <= order <= 4.3 and not est.failed and abs(est.value) <= 1e-3
    _criterion(10, "rk4 order ~4 on the linear problem; lambda <= 1e-3 at e=0",
               ok, f"order {order:.3f}, lambda {est.value:.2e}")


def test_criterion_11_cli_reproducibility(tmp_path):
    from semiosc.cli import main
    a, b = tmp_path / "a", tmp_path / "b"
    first = main(["simulate", "vacuum-kick", "-o", str(a)])
    second = main(["simulate", "vacuum-kick", "-o", str(b)])
    csv_same = (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
    svg_same = (a / "number_overlay.svg").read_bytes() == \
        (b / "number_overlay.svg").read_bytes()
    ok = first == 0 and second == 0 and csv_same and svg_same
    _criterion(11, "two simulate runs emit byte-identical CSV and SVG",
               ok, f"csv identical: {csv_same}, svg identical: {svg_same}")
