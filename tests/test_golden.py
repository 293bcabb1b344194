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
        "3bc9048c55df1ed12d578a7a4ed55fd2a8713bf920fac2223047d4b5af7e463c"),
    "vacuum-kick-mode-rk4": (
        {"representation": "mode"}, EXIT_OK,
        "15e8397cea1090fa210331f40d3bb961746ef12e8080af88e65c3421cfef449f"),
    "vacuum-kick-pinney-adaptive": (
        {"method": "adaptive"}, EXIT_OK,
        "f658eb2a546936c6b54ec931ee9b45d641e8fdb287dbb0a7d6e304a60d5f8b9c"),
    "vacuum-kick-t_end-2.6": (
        {"t_end": "2.6"}, EXIT_OK,
        "ee21332f91d43cc15055e89698c8477becd4c19423a471b7d8e182bebce6dc1e"),
    "vacuum-kick-dt-0.003": (
        {"dt": "0.003", "t_end": "3.0"}, EXIT_OK,
        "5c0168f693a82d28e219d1febd830ec041f6d11b8eb11a0a7675c4e489c02103"),
    "vacuum-kick-sample_every-7": (
        {"sample_every": "7"}, EXIT_OK,
        "2f42428de4307f43602453299150b30ed944a512ac502552737a15fa1f22fd82"),
    "vacuum-kick-rho_min-0.9": (
        {"rho_min": "0.9"}, EXIT_ABORT,
        "cc4a8ab2f229581b93b4a76d07d8d9ed163c746c8807d41f9fe7054070a28324"),
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
