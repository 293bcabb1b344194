"""semiosc: a classical oscillator coupled in mean field to a quantum oscillator.

The classical coordinate A drives the quantum frequency omega(A); the quantum
Gaussian state back-reacts through its variance.  The package integrates the
coupled system in three equivalent representations and compares two competing
definitions of the time-dependent occupation number.
"""

__version__ = "0.1.0"

from .core import (
    DiagnosticError,
    DomainError,
    EnergyReport,
    GaussianMoments,
    ModeSector,
    ModelParams,
    OscBasis,
    PinneySector,
    SemiState,
    SemiquantumError,
    UsageError,
    ValidationError,
    bogoliubov_coefficients,
    basis_vacuum_moments,
    drift_sheared_basis,
    effective_frequency,
    energies,
    frequency,
    invariant_basis,
    mode_wronskian,
    occupation_closed_form,
    occupation_difference_exact,
    occupation_difference_leading,
    occupation_numbers,
    pinney_residual,
    quanta_expectation,
    shearless_basis,
    state_effective_frequency,
    state_moments,
    vacuum_moments,
    validate_state,
)
from .dynamics import (
    COLUMNS,
    ScenarioConfig,
    TimeSeriesRecord,
    Trajectory,
    convert,
    derivatives,
    init_adiabatic,
    init_vacuum,
    initial_state,
    integrate,
    record_observables,
    scenario_with,
)
from .diagnostics import (
    DiscrepancyScaling,
    LyapunovEstimate,
    adiabatic_invariant_drift,
    benettin_lyapunov,
    convergence_order,
    discrepancy_scaling,
    energy_drift,
    linear_test_order,
    lyapunov_max,
    max_abs_discrepancy,
    max_abs_remainder,
    structure_count,
)
from .config import (
    ConfigError,
    SweepSpec,
    bundled_scenario_names,
    load_scenario,
    load_sweep,
    parse_scenario_text,
    parse_sweep_text,
)
