"""Golden output pins: SHA-256 of the simulate and diagnose artifacts.

Each simulate case runs `semiosc simulate` and compares the digests of
timeseries.csv and number_overlay.svg with the values recorded when the
pins were introduced.  The bundled scenarios cover pinney/rk4; the short
vacuum-kick variants cover the other layouts under rk4 and the adaptive
method, which no bundled scenario uses, in every layout.  The diagnose cases
pin diagnostics.json, which carries the bits of the Lyapunov estimate and
the convergence order.  The render cases pin curves that render_line_plot
draws through every point.  A pin changes only with an intended output
change, recorded in CHANGES.md.
"""

import hashlib

import pytest

from semiosc.cli import EXIT_ABORT, EXIT_OK, main
from semiosc.svgplot import render_line_plot

VACUUM_KICK_SHORT = """\
m = 1.0
e = 1.0
hbar = 1.0
A0 = 1.0
Adot0 = 1.0
quantum_init = vacuum
representation = {representation}
method = {method}
dt = 0.001
t_end = 2.0
sample_every = 10
"""

# case -> (timeseries.csv SHA-256, number_overlay.svg SHA-256)
PINS = {
    "vacuum-kick": (
        "3be2603213277a588c4bfa2d78be0defa7e40accd053fd2db8a8cbf5a62f8b7e",
        "ce33234678cec92730a486f695720136e9692115481b9221f1c6c09ff261f64c"),
    "free": (
        "e84bf82e83a780c245d997b2c3fc36103912758a9eeb181017a0749d79ef1763",
        "9d9b44e8b3538a2836af4b3abc584408d8feeff0e123a4eb323d85e107a82641"),
    "strong": (
        "2c8ce6c6bbee3a4a3a2b4ce5c8edccf5f7ea0be9e2cc845ce91d7c07607e14c5",
        "f392178a4c8b8828eac90e2f2d1df7a41eda744ce93fe09dbea3957a8bbf4ae7"),
    "adiabatic": (
        "192df63ca7ee06892eca1f64ed9375d31fd86c21bb888d7d15dd1c471804a695",
        "8899a9bd999c0e19771450f844955a284f51796a7b030213e9ae9a32403e0393"),
    "vacuum-kick-mode-rk4": (
        "4b2920a13f19e08a54832c58e7969fb4a31ed61d068930a176c8138ed3a33c9d",
        "16c8794e54829a720863ed9be404b0249cff9aace104625a9654309f7d95acc4"),
    "vacuum-kick-moments-rk4": (
        "dba491957cbc7e335fac9cea4d09da7a21bbb7074e31cec1592cc4a9e813bac4",
        "16c8794e54829a720863ed9be404b0249cff9aace104625a9654309f7d95acc4"),
    "vacuum-kick-mode-adaptive": (
        "8a7c443aa04460a0e984923df3da4b7d1b69f6c8fc4394437453517b4ce2f9bc",
        "936f5ebc4d49e92f16c374ba78e587e5a10a97a0df3debf1e700338338c5abb5"),
    "vacuum-kick-pinney-adaptive": (
        "ea575759e1ef7c805928f71b302dc86088c0b9cffa47d6fd05b9230b29d32895",
        "3aac12425dcf3295490bfd54bc0a7a1e0eb715f60ddd5cb0ea9c133890e1ffcd"),
    "vacuum-kick-moments-adaptive": (
        "5adfca3b819d140e92bcdf9f1a8d1e257373344cf5bba557df15ecf81c531463",
        "2ca2ba05ea55ebecb9c254bc8ca09b2fae6edc5fa506a81bbd391194805020b1"),
}


def _config_ref(case, tmp_path):
    if not case.startswith("vacuum-kick-"):
        return case  # a bundled scenario name
    representation, method = case[len("vacuum-kick-"):].split("-")
    path = tmp_path / f"{case}.cfg"
    path.write_text(VACUUM_KICK_SHORT.format(representation=representation,
                                             method=method))
    return str(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_simulate_output_digests(case, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", _config_ref(case, tmp_path), "-o", str(out)]) == EXIT_OK
    assert (_sha256(out / "timeseries.csv"),
            _sha256(out / "number_overlay.svg")) == PINS[case]


def _short_config(tmp_path, case, **changes):
    """VACUUM_KICK_SHORT in pinney rk4 with `changes` set, as a file path."""
    keys = dict(ln.split(" = ") for ln in VACUUM_KICK_SHORT.format(
        representation="pinney", method="rk4").splitlines())
    keys.update(changes)
    path = tmp_path / f"{case}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


# case -> (keys set on pinney rk4 VACUUM_KICK_SHORT, exit code,
# diagnostics.json SHA-256 of `semiosc diagnose`).  The first case's grid lets
# the order study and the Benettin estimate reuse the main run, and so does
# t_end = 2.6's: its step is the Benettin segment's (2.6 / 2600 ==
# 1.0 / 1000), and its two whole segments end within the run.  The others
# cannot reuse it: another layout or method, a step that differs from the
# Benettin segment's (dt = 0.003), a stride that does not divide a segment,
# and an aborted main run.
DIAGNOSE_PINS = {
    "vacuum-kick-pinney-rk4": (
        {}, EXIT_OK,
        "cbd1d8a29e5199e407b2da7aa4aead945d13bea70f4db19fdebdb6ddb699af55"),
    "vacuum-kick-mode-rk4": (
        {"representation": "mode"}, EXIT_OK,
        "8300d4ec1ebb6db5287f93a686e66d23d24778627a09d0a19f5d729e7d5cc3e9"),
    "vacuum-kick-pinney-adaptive": (
        {"method": "adaptive"}, EXIT_OK,
        "1bcd5a7979e8ad2defaf0243cb23df9f3302f950c760a101a542a565bf8ab363"),
    "vacuum-kick-t_end-2.6": (
        {"t_end": "2.6"}, EXIT_OK,
        "2e2ca62d08437c5e6b5cc972f4bd8fafc9d64f8ddc5e8813650ee1fcbdc55a0a"),
    "vacuum-kick-dt-0.003": (
        {"dt": "0.003", "t_end": "3.0"}, EXIT_OK,
        "4f17c78baa3d84a4942d9c3b227e6d06276d8b8ddb4830ee13dfa19e118fb6f8"),
    "vacuum-kick-sample_every-7": (
        {"sample_every": "7"}, EXIT_OK,
        "7df35a5700a70f387e53a7e320ea4ec93a4b28009bd6ba47b3e1add8eeaf23e4"),
    "vacuum-kick-rho_min-0.9": (
        {"rho_min": "0.9"}, EXIT_ABORT,
        "f710ba929e7f6f3e4eac529d998f3ba8c5f87d6f1e7d3e15d3b74bb9624c41d7"),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSE_PINS))
def test_diagnose_report_digests(case, tmp_path):
    changes, code, digest = DIAGNOSE_PINS[case]
    out = tmp_path / "out"
    config = _short_config(tmp_path, case, **changes)
    assert main(["diagnose", config, "-o", str(out)]) == code
    assert _sha256(out / "diagnostics.json") == digest


def _unbinned_curves():
    """Two curves every renderer draws point by point: a time series of
    exactly 4 points per pixel column (778 columns), and a 5,000-point
    curve whose x is not monotone, like the phase-A portrait."""
    n = 4 * 778
    series = ([0.01 * i for i in range(n)],
              [(i * i % 997) / 997.0 - 0.5 for i in range(n)])
    portrait = ([((i * 7919) % 5003) / 5003.0 - 0.5 for i in range(5000)],
                [(i % 101) / 50.0 - 1.0 for i in range(5000)])
    return series, portrait


# case -> SHA-256 of render_line_plot's output
RENDER_PINS = {
    "series-3112":
        "306a2d0b5ef1a6eae143de13fcd05fd99c6119aa3bff70a207e41d8561a10723",
    "portrait-5000":
        "5045850d6ab778beefaaea0d03e209655a93ea23ea18d2783c73f9dc3abe07ed",
}


@pytest.mark.parametrize("case", sorted(RENDER_PINS))
def test_unbinned_render_digests(case):
    series, portrait = _unbinned_curves()
    xs, ys = series if case.startswith("series") else portrait
    svg = render_line_plot([(case, xs, ys)], title=case, xlabel="x",
                           ylabel="y")
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == RENDER_PINS[case]
