"""Runtime-only checks: each command in a fresh interpreter, without numpy.

run_python starts every case's interpreter with numpy blocked,
PYTHONDEVMODE=1 and warnings as errors, so a leaked file or a deprecated
call shows on stderr, which must hold only the program's own lines.  What a
command writes gets the shared checks of _check_outputs.  CI runs this
module against the package installed with no extras, Tier-1 from the source
tree; it imports only the standard library, pytest and semiosc.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import semiosc
from semiosc.cli import PLOT_KINDS
from semiosc.svgplot import PLOT_W

# holds a numpy module whose import fails
NO_NUMPY = os.path.join(os.path.dirname(__file__), "no_numpy")
SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_python(args, cwd, block_numpy=True):
    """python args in cwd, in a fresh interpreter with PYTHONDEVMODE=1 and
    warnings as errors, and numpy blocked unless block_numpy is false."""
    env = dict(os.environ, PYTHONDEVMODE="1", PYTHONWARNINGS="error")
    src = os.path.dirname(os.path.dirname(semiosc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        NO_NUMPY if block_numpy else None, src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# the shared checks
# ---------------------------------------------------------------------------

def _strict_json(path):
    """RFC 8259 JSON only: NaN and Infinity tokens raise."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


# the keys the package's manifest schema requires, which it alone allows
MANIFEST_KEYS = set(_strict_json(os.path.join(
    os.path.dirname(semiosc.__file__), "manifest.schema.json"))["required"])


# a line main() writes to stderr: a warning or a JSON error
PROGRAM_LINE = re.compile(r'warning: .+|\{"error": "[a-z-]+", "detail": .+\}')


def _check_outputs(out, command):
    """Every report under out is strict JSON; every manifest has the ten
    keys and is command's (a sweep's legs are sweep-leg); every overlay
    draws at most 4 points per pixel column."""
    for path in [out] if out.is_file() else sorted(out.rglob("*")):
        if path.name in ("diagnostics.json", "manifest.json"):
            report = _strict_json(path)
        if path.name == "manifest.json":
            assert set(report) == MANIFEST_KEYS, (path, sorted(report))
            leg = command == "sweep" and path.parent != out
            assert report["command"] == ("sweep-leg" if leg else command), path
        if "overlay" in path.name and path.suffix == ".svg":
            sizes = [len(points.split()) for points in re.findall(
                r'<polyline [^>]*points="([^"]*)"', path.read_text())]
            assert sizes and max(sizes) <= 4 * PLOT_W, (path, sizes)


def _semiosc(cwd, *args, code=0):
    """python -m semiosc args in cwd: the exit code must be code, stderr
    must hold only the program's lines, and what the command wrote passes
    the shared checks.  Returns the process."""
    proc = run_python(["-m", "semiosc", *args], cwd)
    assert proc.returncode == code, proc.stderr
    assert all(map(PROGRAM_LINE.fullmatch, proc.stderr.splitlines())), \
        proc.stderr
    _check_outputs(cwd / args[args.index("-o") + 1], args[0])
    return proc


UNIT = {"m": 1.0, "e": 1.0, "hbar": 1.0, "A0": 1.0, "Adot0": 1.0}


def _config(cwd, name, **keys):
    """Write UNIT with keys to cwd / name; return name."""
    (cwd / name).write_text("".join(f"{k} = {v}\n"
                                    for k, v in {**UNIT, **keys}.items()))
    return name


# ---------------------------------------------------------------------------
# entry points and the experiment scripts
# ---------------------------------------------------------------------------

def test_python_m_semiosc_runs_the_cli(tmp_path):
    proc = run_python(["-m", "semiosc", "--version"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("semiosc 0.1.0\n", "")


@pytest.mark.parametrize("argv", [
    ["run_bundled_scenarios.py", "scenarios"],
    ["discrepancy_sweep.py", "dsweep"],
    ["chaos_probe.py", "free", "vacuum-kick"],
], ids=lambda argv: argv[0])
def test_experiment_script_exits_0(argv, tmp_path):
    proc = run_python([os.path.join(SCRIPTS, argv[0]), *argv[1:]], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    _check_outputs(tmp_path, "simulate")


# ---------------------------------------------------------------------------
# configs and starts that exit 2
# ---------------------------------------------------------------------------

def _explicit(rho0):
    return {"quantum_init": "explicit", "rho0": rho0, "rhodot0": 0}


START = ("m = 1.0, e = 1.0, hbar = 1.0, A0 = 1.0, Adot0 = 1.0, rho0 = {}, "
         "rhodot0 = 0.0: the initial state is not representable ({})")
OUT_OF_RANGE = "a derived quantity is outside double range"


@pytest.mark.parametrize("command, keys, detail", [
    ("simulate", {"dt": 0}, "c.cfg: dt must be positive, got 0.0"),
    ("simulate", {"rtol": 0}, "c.cfg: rtol must be positive, got 0.0"),
    ("simulate", {"atol": 0}, "c.cfg: atol must be positive, got 0.0"),
    # rho0^2 underflows to 0.0, so Omega = 1/rho0^2 divides by zero
    ("simulate", _explicit(1e-300), START.format("1e-300", OUT_OF_RANGE)),
    ("diagnose", _explicit(1e-300), START.format("1e-300", OUT_OF_RANGE)),
    # rho0^2 = 1e-240 is representable, rho0^3 underflows to 0.0, so
    # Omegadot = -2 rhodot0/rho0^3 divides by zero
    ("simulate", _explicit(1e-120), START.format("1e-120", OUT_OF_RANGE)),
    # <p^2> = hbar / (2 rho0^2) rounds to 0.0, which core's positivity
    # check names
    ("simulate", _explicit(1e300),
     START.format("1e+300", "<p^2> must be positive, got 0.0")),
    # at A0 = 0, omegaddot0 = e^2 Adot0^2 = 9, so Omega0 = 1 - 9/4 < 0
    ("simulate", {"quantum_init": "adiabatic", "A0": 0, "Adot0": 3},
     "m = 1.0, e = 1.0, hbar = 1.0, A0 = 0.0, Adot0 = 3.0: the initial state "
     "is not representable (adiabatic start left the domain (Omega0 <= 0); "
     "the scenario is not slowly driven)"),
], ids=["dt-zero", "rtol-zero", "atol-zero", "rho0-1e-300-simulate",
        "rho0-1e-300-diagnose", "rho0-1e-120", "rho0-1e300",
        "adiabatic-omega0-negative"])
def test_config_or_start_exits_2_with_its_detail(command, keys, detail,
                                                 tmp_path):
    cfg = _config(tmp_path, "c.cfg", t_end=2.0, **keys)
    proc = _semiosc(tmp_path, command, cfg, "-o", "out", code=2)
    assert json.loads(proc.stderr)["detail"] == detail
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# diagnose: the order study and the Lyapunov estimate
# ---------------------------------------------------------------------------

# scenario -> whether its order study measures an order.  free and
# adiabatic have no truncation error to measure: their legs differ by
# round-off, and the observed order comes out negative.
BUNDLED_ORDERS = {"adiabatic": False, "free": False, "strong": True,
                  "vacuum-kick": True}


@pytest.mark.parametrize("name", sorted(semiosc.bundled_scenario_names()))
def test_bundled_scenario_gets_an_order_or_null_with_a_warning(name,
                                                               tmp_path):
    _semiosc(tmp_path, "diagnose", name, "-o", "diag")
    report = _strict_json(tmp_path / "diag" / "diagnostics.json")
    order = report["convergence_order"]
    warnings = _strict_json(tmp_path / "diag" / "manifest.json")["warnings"]
    failed = [w for w in warnings if w.startswith("convergence order failed")]
    if BUNDLED_ORDERS[name]:
        assert 3.6 <= order <= 4.4 and not failed, (order, warnings)
    else:
        assert order is None, order
        assert len(failed) == 1 and "not finite and positive" in failed[0]
    assert report["lyapunov"]["failed"] is False, report["lyapunov"]


def test_diagnose_reads_an_adaptive_mode_run(tmp_path):
    # neither study can read an adaptive run: the order study integrates
    # all three rk4 legs, and Benettin steps both copies
    cfg = _config(tmp_path, "mode-adaptive.cfg", representation="mode",
                  method="adaptive", t_end=4.0)
    _semiosc(tmp_path, "diagnose", cfg, "-o", "diag")
    report = _strict_json(tmp_path / "diag" / "diagnostics.json")
    assert 3.6 <= report["convergence_order"] <= 4.4, report
    assert report["lyapunov"]["failed"] is False, report["lyapunov"]


def test_diagnose_short_run_writes_null_lyapunov(tmp_path):
    # t_end = 1 is one Benettin segment, discarded as transient: no value
    cfg = _config(tmp_path, "short.cfg", t_end=1.0)
    proc = _semiosc(tmp_path, "diagnose", cfg, "-o", "diag")
    lyapunov = _strict_json(tmp_path / "diag" / "diagnostics.json")["lyapunov"]
    assert lyapunov["value"] is None and lyapunov["failed"], lyapunov
    assert "warning: lyapunov estimate flagged" in proc.stderr


def test_diagnose_flags_lyapunov_at_the_step_that_reaches_the_floor(
        tmp_path):
    # both Benettin copies test the width floor after every step, as the
    # run does: a run that reaches it at its first step flags the estimate
    # at that step, not at the first segment's end
    cfg = _config(tmp_path, "floor.cfg", t_end=2.0, rho_min=0.9)
    _semiosc(tmp_path, "diagnose", cfg, "-o", "diag", code=3)
    lyapunov = _strict_json(tmp_path / "diag" / "diagnostics.json")["lyapunov"]
    assert lyapunov["failed"] is True, lyapunov
    assert "fell to the floor 0.9 at t=0.001" in lyapunov["note"], lyapunov


# a pinney run that reaches its width floor at step 190 of dt = 0.01, after
# a whole Benettin segment
LATE_FLOOR = dict(m=0.8887256039908371, e=0.6204864235917862, hbar=1.0,
                  A0=0.6276297907847099, Adot0=-2.7249114461876993,
                  quantum_init="explicit", rho0=1.0778798124031204,
                  rhodot0=2.3514411608369885, rho_min=0.2665836395765614,
                  t_end=6.0, dt=0.01)


def test_diagnose_names_the_late_floor_at_the_runs_abort_time(tmp_path):
    # a Benettin segment continues the grid's step count, so a copy that
    # reaches the floor mid-segment names the step's time as the run does:
    # 1.9000000000000001 = 190 * 0.01, not 1.0 + 90 * 0.01 nor the
    # segment's end
    cfg = _config(tmp_path, "late-floor.cfg", **LATE_FLOOR)
    _semiosc(tmp_path, "diagnose", cfg, "-o", "diag", code=3)
    lyapunov = _strict_json(tmp_path / "diag" / "diagnostics.json")["lyapunov"]
    abort_time = _strict_json(tmp_path / "diag" / "manifest.json")["abort_time"]
    assert lyapunov["failed"] is True, lyapunov
    assert abort_time == 1.9000000000000001, abort_time
    assert lyapunov["note"].endswith(f"at t={abort_time!r}"), lyapunov


# ---------------------------------------------------------------------------
# simulate and plot
# ---------------------------------------------------------------------------

def test_adaptive_run_stops_at_the_late_floor(tmp_path):
    # Fehlberg 4(5)'s inlined floor test, not the rk4 run's, stops the run
    cfg = _config(tmp_path, "late-floor.cfg", **LATE_FLOOR, method="adaptive")
    proc = _semiosc(tmp_path, "simulate", cfg, "-o", "out", code=3)
    assert "fell to the floor 0.2665836395765614 at t=" in \
        json.loads(proc.stderr)["detail"]


def test_plot_of_the_free_time_series(tmp_path):
    _semiosc(tmp_path, "simulate", "free", "-o", "free")
    _semiosc(tmp_path, "plot", "free/timeseries.csv", "--kind", "energy",
             "-o", "energy.svg")
    assert (tmp_path / "energy.svg").read_text().startswith("<?xml")


def test_vacuum_kick_plots_every_kind(tmp_path):
    # its 10,001 samples are drawn through at most 4 points per pixel
    # column, in the run's overlay and in the re-plotted one
    _semiosc(tmp_path, "simulate", "vacuum-kick", "-o", "vk")
    for kind in PLOT_KINDS:
        _semiosc(tmp_path, "plot", "vk/timeseries.csv", "--kind", kind,
                 "-o", f"{kind}.svg")
        assert "<polyline" in (tmp_path / f"{kind}.svg").read_text()
    assert (tmp_path / "vk" / "number_overlay.svg").is_file()


# one short run on each generated path the bundled scenarios do not take:
# the rk4 runs of mode and moments, the adaptive runs of all three
@pytest.mark.parametrize("representation, method", [
    ("mode", "adaptive"), ("mode", "rk4"), ("moments", "rk4"),
    ("moments", "adaptive"), ("pinney", "adaptive")])
def test_simulate_each_generated_path(representation, method, tmp_path):
    cfg = _config(tmp_path, "run.cfg", representation=representation,
                  method=method, t_end=2.0)
    _semiosc(tmp_path, "simulate", cfg, "-o", "out")
    manifest = _strict_json(tmp_path / "out" / "manifest.json")
    assert manifest["status"] == "completed", manifest


@pytest.mark.parametrize("representation", ["pinney", "mode", "moments"])
def test_every_sample_writes_one_csv_row(representation, tmp_path):
    # every sample goes through its representation's row writer: at
    # sample_every = 1 a 2,000-step run writes 2,001 rows
    cfg = _config(tmp_path, "every-step.cfg", representation=representation,
                  t_end=2.0, sample_every=1)
    _semiosc(tmp_path, "simulate", cfg, "-o", "out")
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    assert len(lines) - 1 == 2001


def test_sweep_runs_with_numpy_blocked(tmp_path):
    (tmp_path / "e.sweep").write_text(
        "base = adiabatic\naxis = e\nvalues = 0.2, 0.1, 0.05\n")
    _semiosc(tmp_path, "sweep", "e.sweep", "-o", "sw")
    manifest = _strict_json(tmp_path / "sw" / "manifest.json")
    assert 3.7 <= manifest["outputs"]["discrepancy_power"] <= 4.3
    assert len(manifest["outputs"]["legs"]) == 3
