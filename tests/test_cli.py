"""End-to-end CLI tests: artifacts, schemas, exit codes, reproducibility."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import tempfile
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiosc import (
    COLUMNS,
    UsageError,
    diagnostics,
    dynamics,
    integrate,
    load_scenario,
)
from semiosc.config import SCENARIO_KEYS
from semiosc.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    emit_plot,
    main,
    read_timeseries_csv,
    run_scenario,
    write_timeseries_csv,
)
from semiosc.svgplot import render_line_plot
from test_runtime_only import _strict_json, run_python

SMALL = """\
m = 1.0
e = 1.0
hbar = 1.0
A0 = 1.0
Adot0 = 1.0
t_end = 3.0
dt = 0.002
sample_every = 5
"""

SINGULAR = """\
m = 1.0
e = 1.0
hbar = 1.0
A0 = 0.0
Adot0 = 0.0
t_end = 5.0
dt = 0.001
sample_every = 1
quantum_init = explicit
rho0 = 0.6
rhodot0 = -2.0
rho_min = 0.5
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def _schema(name="report"):
    import semiosc
    root = os.path.dirname(semiosc.__file__)
    with open(os.path.join(root, f"{name}.schema.json")) as fh:
        return json.load(fh)


def _manifest(out):
    """out's manifest.json, validated against manifest.schema.json."""
    manifest = json.loads((out / "manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest"))
    return manifest


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_produces_all_artifacts(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", small_cfg, "-o", str(out)])
    assert code == EXIT_OK
    manifest = _manifest(out)
    assert manifest["status"] == "completed"
    assert manifest["version"]
    for key in ("timeseries_csv", "diagnostics_json", "manifest"):
        assert os.path.exists(manifest["outputs"][key])
    assert manifest["outputs"]["plots"]
    for p in manifest["outputs"]["plots"]:
        assert os.path.exists(p)
    report = json.loads((out / "diagnostics.json").read_text())
    jsonschema.validate(report, _schema())
    assert report["energy_drift"] >= 0.0
    assert report["lyapunov"] is None


def test_simulate_csv_schema_and_values(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", small_cfg, "-o", str(out)]) == EXIT_OK
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    first = dict(zip(COLUMNS, (float(v) for v in lines[1].split(","))))
    assert first["t"] == 0.0
    assert first["N_ours"] == 0.0
    assert first["N_cdms"] == pytest.approx(1.0 / 128.0, abs=1e-12)


def test_simulate_bundled_vacuum_kick_first_row(tmp_path):
    out = tmp_path / "vk"
    assert main(["simulate", "vacuum-kick", "-o", str(out)]) == EXIT_OK
    first = read_timeseries_csv(str(out / "timeseries.csv"))[0]
    assert first.N_ours == 0.0
    assert first.N_cdms == pytest.approx(0.0078125, abs=1e-12)


def test_simulate_free_scenario_has_zero_occupation(tmp_path):
    out = tmp_path / "free"
    assert main(["simulate", "free", "-o", str(out)]) == EXIT_OK
    records = read_timeseries_csv(str(out / "timeseries.csv"))
    assert all(r.N_ours == 0.0 for r in records)
    assert all(r.N_cdms == 0.0 for r in records)


def test_simulate_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "free", "-o", str(a)]) == EXIT_OK
    assert main(["simulate", "free", "-o", str(b)]) == EXIT_OK
    assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
    assert (a / "number_overlay.svg").read_bytes() == \
        (b / "number_overlay.svg").read_bytes()


def test_simulate_missing_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace("m = 1.0\n", ""))
    assert main(["simulate", str(bad), "-o", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "'m'" in err["detail"]


@pytest.mark.parametrize("changes, key", [
    ({"t_end": "inf"}, "t_end"),
    ({"t_end": "1e300", "dt": "1e-300"}, "dt"),
    ({"dt": "inf"}, "dt"),
    ({"A0": "1e200"}, "A0"),
    ({"A0": "nan"}, "A0"),
    ({"dt": "5", "t_end": "1"}, "dt"),
    ({"dt": "0.7", "t_end": "1"}, "dt"),
    ({"dt": "1e-12", "t_end": "1"}, "dt"),
])
def test_simulate_bad_numbers_exit_2_naming_the_key(tmp_path, capsys, changes, key):
    text = SMALL
    for name, value in changes.items():
        text = "".join(f"{name} = {value}\n" if ln.startswith(f"{name} =") else ln
                       for ln in text.splitlines(keepends=True))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    detail = json.loads(err.strip())["detail"]
    assert key in detail
    assert "rho" not in detail


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_non_finite_start_exits_2_naming_the_start(tmp_path, capsys, command):
    # a finite start whose energy overflows: Etot = Adot0^2 / 2 = inf
    cfg = tmp_path / "kick.cfg"
    cfg.write_text("m = 1\ne = 0\nhbar = 1\nA0 = 0\nAdot0 = 1e200\n"
                   "dt = 0.1\nt_end = 2\n")
    out = tmp_path / "o"
    assert main([command, str(cfg), "-o", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "A0 = 0.0, Adot0 = 1e+200" in err["detail"]
    assert "Etot = inf" in err["detail"]
    assert not (out / "timeseries.csv").exists()



def test_start_error_exits_2_naming_every_key_of_the_start(tmp_path, capsys):
    # m * m overflows, so the vacuum width is 0: m is named with the rest
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(SMALL.replace("m = 1.0", "m = 1e308"))
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "o")]) == EXIT_CONFIG
    detail = json.loads(capsys.readouterr().err.strip())["detail"]
    assert detail.startswith("m = 1e+308, e = 1.0, hbar = 1.0, A0 = 1.0, "
                             "Adot0 = 1.0: the initial state is not "
                             "representable (")


@pytest.mark.parametrize("command, name, text, message", [
    ("simulate", "c.cfg", SMALL + "= 5\n", ":9: empty key"),
    ("simulate", "c.cfg",
     SMALL + "quantum_init = explicit\nrho0 = -1\nrhodot0 = 0\n",
     ": rho0 must be positive, got -1.0"),
    ("simulate", "c.cfg", SMALL + "rho_min = 0\n",
     ": rho_min must be positive, got 0.0"),
    ("simulate", "c.cfg", SMALL + "dt_init = -1\n",
     ": dt_init must be positive, got -1.0"),
    ("simulate", "c.cfg", SMALL + "atol = -1e-12\n",
     ": atol must be positive, got -1e-12"),
    ("sweep", "s.sweep", "base = free\naxis = e\nvalues = ,\n",
     ":3: key 'values': no values given"),
])
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, command,
                                                  name, text, message):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "o"
    assert main([command, str(path), "-o", str(out)]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["detail"] == f"{path}{message}"
    assert not out.exists()


def test_simulate_missing_file_exits_4(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.cfg"),
                 "-o", str(tmp_path / "o")]) == EXIT_IO


def test_simulate_singularity_exits_3_with_partial_csv(tmp_path, capsys):
    cfg = tmp_path / "sing.cfg"
    cfg.write_text(SINGULAR)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "-o", str(out)]) == EXIT_ABORT
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "runtime-abort"
    manifest = _manifest(out)
    assert manifest["status"] == "aborted-singularity"
    assert manifest["abort_reason"]
    records = read_timeseries_csv(str(out / "timeseries.csv"))
    assert 2 <= len(records)
    assert records[-1].t < 5.0
    report = json.loads((out / "diagnostics.json").read_text())
    jsonschema.validate(report, _schema())


def test_simulate_step_attempt_bound_exits_3_with_partial_csv(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEP_ATTEMPTS", 40)
    cfg = tmp_path / "adaptive.cfg"
    cfg.write_text(SMALL + "method = adaptive\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "-o", str(out)]) == EXIT_ABORT
    assert json.loads(capsys.readouterr().err.strip())["error"] == "runtime-abort"
    manifest = _manifest(out)
    assert manifest["status"] == "aborted-stepfail"
    assert manifest["abort_reason"].startswith("40 step attempts")
    records = read_timeseries_csv(str(out / "timeseries.csv"))
    assert 2 <= len(records)
    assert records[-1].t < 3.0


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0, 2.0], [1.0, math.nan, 2.0]),
    ([0.0, math.nan, 2.0], [1.0, 1.5, 2.0]),
    ([0.0, 1.0, 2.0], [1.0, -math.inf, 2.0]),
    # finite values whose span overflows
    ([1e308, -1e308, 0.0], [1.0, 1.5, 2.0]),
    ([0.0, 1.0, 2.0], [1.7e308, 1.0, 0.0]),
    # a curve long enough to bin, with a nan at an index no column keeps
    ([float(i) for i in range(5000)],
     [math.nan if i == 2501 else float(i % 10) for i in range(5000)]),
])
def test_render_line_plot_rejects_non_finite_data(xs, ys):
    with pytest.raises(UsageError, match="non-finite"):
        render_line_plot([("a", xs, ys)], title="t", xlabel="x", ylabel="y")


def test_render_line_plot_rejects_an_empty_plot():
    with pytest.raises(UsageError, match="nothing to plot"):
        render_line_plot([], title="t", xlabel="x", ylabel="y")


def test_plot_of_an_overflowing_span_exits_2(tmp_path, capsys):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(integrate(load_scenario("free")).records, str(path))
    lines = path.read_text().splitlines()
    col = COLUMNS.index("A")
    for lineno, value in ((1, "1e308"), (2, "-1e308")):
        fields = lines[lineno].split(",")
        fields[col] = value
        lines[lineno] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    dest = tmp_path / "phase.svg"
    assert main(["plot", str(path), "--kind", "phase-A",
                 "-o", str(dest)]) == EXIT_CONFIG
    assert "non-finite span" in capsys.readouterr().err
    assert not dest.exists()


def test_plot_kinds(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["simulate", small_cfg, "-o", str(out)])
    csv = str(out / "timeseries.csv")
    for kind in ("number-overlay", "number-difference", "energy", "phase-A"):
        dest = tmp_path / f"{kind}.svg"
        assert main(["plot", csv, "--kind", kind, "-o", str(dest)]) == EXIT_OK
        body = dest.read_text()
        assert body.startswith("<?xml")
        assert "<polyline" in body


def test_overlay_has_two_distinguishable_series(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["simulate", small_cfg, "-o", str(out)])
    body = (out / "number_overlay.svg").read_text()
    assert body.count("<polyline") == 2
    assert "N_ours" in body and "N_cdms" in body
    assert "#1f77b4" in body and "#d62728" in body


def test_energy_plot_annotation_matches_drift(small_cfg, tmp_path):
    from semiosc import energy_drift
    out = tmp_path / "out"
    main(["simulate", small_cfg, "-o", str(out)])
    records = read_timeseries_csv(str(out / "timeseries.csv"))
    dest = tmp_path / "energy.svg"
    emit_plot(records, "energy", str(dest))
    body = dest.read_text()
    marker = "relative Etot drift = "
    start = body.index(marker) + len(marker)
    annotated = float(body[start:body.index("<", start)])
    assert annotated == pytest.approx(energy_drift(records), abs=1e-12)


def test_plot_usage_errors(tmp_path):
    with pytest.raises(UsageError):
        emit_plot([], "energy", str(tmp_path / "x.svg"))
    records = integrate(load_scenario("free")).records
    with pytest.raises(UsageError):
        emit_plot(records, "spectrogram", str(tmp_path / "x.svg"))


def test_flat_difference_for_decoupled_run(tmp_path):
    records = integrate(load_scenario("free")).records
    dest = tmp_path / "diff.svg"
    emit_plot(records, "number-difference", str(dest))
    assert "<polyline" in dest.read_text()  # flat zero line still renders


# ---------------------------------------------------------------------------
# csv round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    records = integrate(load_scenario("free")).records
    path = str(tmp_path / "ts.csv")
    write_timeseries_csv(records, path)
    back = read_timeseries_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a == b  # 17 significant digits round-trip


def test_csv_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(UsageError):
        read_timeseries_csv(str(path))


@pytest.mark.parametrize("row", [
    ["1"] * 17, ["x"] * 18, ["1"] * 17 + ["nan"], ["inf"] + ["1"] * 17,
    # a blank line 2 before a 17-field line 3: the error names line 3
    pytest.param(["\n1"] + ["1"] * 16, id="blank-line-2")])
def test_csv_malformed_row_exits_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    text = ",".join(row)
    path.write_text(",".join(COLUMNS) + "\n" + text + "\n")
    assert main(["plot", str(path), "--kind", "energy",
                 "-o", str(tmp_path / "x.svg")]) == EXIT_CONFIG
    line = 2 + text.count("\n")
    assert f":{line}:" in json.loads(capsys.readouterr().err.strip())["detail"]


def test_empty_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["plot", str(path), "--kind", "energy",
                 "-o", str(tmp_path / "x.svg")]) == EXIT_CONFIG
    assert "empty time-series file" in json.loads(
        capsys.readouterr().err.strip())["detail"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    import semiosc
    assert semiosc.__version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AGGREGATE_HEADER = ("leg,axis,value,status,max_abs_discrepancy,"
                     "max_abs_remainder,energy_drift,lyapunov,extrema_ours,"
                     "extrema_cdms\n")


def test_sweep_aggregate_and_power(tmp_path):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = adiabatic\naxis = e\nvalues = 0.2, 0.1, 0.05\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    assert (out / "aggregate.csv").read_text() == _AGGREGATE_HEADER + (
        "0,e,0.20000000000000001,completed,1.0953041016548786e-05,"
        "3.0464976356235581e-06,2.2907521681549743e-15,"
        "-0.00042666011920946238,0,0\n"
        "1,e,0.10000000000000001,completed,8.2457691845014246e-07,"
        "5.3321943295131542e-08,1.5302891931076479e-15,"
        "-8.4333122085567954e-05,0,0\n"
        "2,e,0.050000000000000003,completed,5.405774413584916e-08,"
        "8.5805980205539428e-10,4.2104652653039552e-15,"
        "-1.9371803492693185e-05,0,0\n")
    for i in range(3):
        assert (out / f"leg{i:02d}" / "timeseries.csv").exists()
    # each leg's report carries the Lyapunov estimate its row shows
    rows = list(csv.DictReader(
        (out / "aggregate.csv").read_text().splitlines()))
    assert len(rows) == 3
    for i, row in enumerate(rows):
        leg = out / f"leg{i:02d}"
        report = json.loads((leg / "diagnostics.json").read_text())
        assert row["status"] == "completed"
        assert report["lyapunov"]["value"] == float(row["lyapunov"])
    manifest = _manifest(out)
    assert 3.7 <= manifest["outputs"]["discrepancy_power"] <= 4.3


def test_sweep_single_leg_notes_insufficient(tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = adiabatic\naxis = e\nvalues = 0.1\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    manifest = _manifest(out)
    assert manifest["outputs"]["discrepancy_power"] is None
    assert any("insufficient legs" in w for w in manifest["warnings"])
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 2


def test_sweep_zero_leg_rejects_the_fit_as_mixed(tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = adiabatic\naxis = e\nvalues = 0.1, 0.05, 0.0\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    manifest = _manifest(out)
    assert manifest["outputs"]["discrepancy_power"] is None
    assert any(w.startswith("mixed") for w in manifest["warnings"])
    assert "warning: mixed" in capsys.readouterr().err


def test_sweep_all_zero_family_warns_zero_signal(tmp_path, capsys):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = adiabatic\naxis = e\nvalues = 0, 0, 0\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(
        (out / "aggregate.csv").read_text().splitlines()))
    assert [row["status"] for row in rows] == ["completed"] * 3
    manifest = _manifest(out)
    assert manifest["outputs"]["discrepancy_power"] is None
    assert any(w.startswith("zero signal") for w in manifest["warnings"])
    assert "warning: zero signal" in capsys.readouterr().err


def test_sweep_bad_value_exits_2_before_any_leg(tmp_path, capsys):
    # a non-finite and a negative coupling: the model refuses both
    for i, values in enumerate(("0.1, nan", "0.2, -0.1, 0.05")):
        sweep = tmp_path / f"sweep{i}.cfg"
        sweep.write_text(f"base = adiabatic\naxis = e\nvalues = {values}\n")
        out = tmp_path / f"sw{i}"
        assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_CONFIG
        detail = json.loads(capsys.readouterr().err.strip())["detail"]
        assert str(sweep) in detail and "'values'" in detail
        assert not out.exists()


def test_sweep_leg_that_cannot_start_exits_2_before_any_leg(tmp_path, capsys):
    base = tmp_path / "base.cfg"
    base.write_text(SMALL.replace("t_end = 3.0", "t_end = 0.5")
                    .replace("dt = 0.002", "dt = 0.01"))
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"base = {base.name}\naxis = A0\nvalues = 0.5, 1e200\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_CONFIG
    detail = json.loads(capsys.readouterr().err.strip())["detail"]
    assert str(sweep) in detail and "'values'" in detail
    assert "A0 = 1e+200" in detail
    assert not out.exists()

def test_sweep_flags_aborted_leg_but_exits_0(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text(SINGULAR)  # collapsing width: every leg aborts
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"base = {base.name}\naxis = A0\nvalues = 0.0, 0.1\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert any("aborted-singularity" in line for line in agg[1:])
    manifest = _manifest(out)
    assert any("aborted" in w for w in manifest["warnings"])


@pytest.mark.parametrize("sample_every, values, rows", [
    (1, "0.0, 0.1",
     "0,A0,0,aborted-singularity,4.4408920985006262e-16,"
     "4.4408920985006262e-16,7.7518315552386089e-12,nan,0,0\n"
     "1,A0,0.10000000000000001,aborted-singularity,1.6852084988139282e-05,"
     "1.6852486277923141e-05,7.7536448767166636e-12,nan,0,0\n"),
    # only the initial row is sampled: no drift and no extrema to report
    (1000, "0.0", "0,A0,0,aborted-singularity,0,0,nan,nan,-1,-1\n"),
])
def test_sweep_aborted_aggregate_bytes(tmp_path, sample_every, values, rows):
    base = tmp_path / "base.cfg"
    base.write_text(SINGULAR.replace("sample_every = 1\n",
                                     f"sample_every = {sample_every}\n"))
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"base = {base.name}\naxis = A0\nvalues = {values}\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    assert (out / "aggregate.csv").read_text() == _AGGREGATE_HEADER + rows


def test_main_stderr_and_exit_codes(small_cfg, tmp_path, capsys):
    assert main(["simulate", small_cfg, "-o", str(tmp_path / "ok")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    sing = tmp_path / "sing.cfg"
    sing.write_text(SINGULAR)
    for command in ("simulate", "diagnose"):
        code = main([command, str(sing), "-o", str(tmp_path / command)])
        assert code == EXIT_ABORT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "runtime-abort"
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(f"base = {sing.name}\naxis = A0\nvalues = 0.0, 0.1\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    manifest = _manifest(out)
    assert len(manifest["warnings"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {w}" for w in manifest["warnings"]]


def test_sweep_computes_each_legs_metrics_once(tmp_path, monkeypatch):
    import semiosc.cli as cli
    calls = []
    drift = cli.energy_drift
    monkeypatch.setattr(cli, "energy_drift",
                        lambda records: calls.append(1) or drift(records))
    (tmp_path / "local.cfg").write_text(SMALL)
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = local.cfg\naxis = Adot0\nvalues = 0.5, 1.0\n")
    assert main(["sweep", str(sweep), "-o", str(tmp_path / "sw")]) == EXIT_OK
    assert len(calls) == 2


def test_sweep_base_resolved_relative_to_sweep_file(tmp_path):
    (tmp_path / "local.cfg").write_text(SMALL)
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("base = local.cfg\naxis = Adot0\nvalues = 0.5, 1.0\n")
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "-o", str(out)]) == EXIT_OK
    manifest = _manifest(out)
    assert any("no discrepancy power fit" in w for w in manifest["warnings"])


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_full_report(small_cfg, tmp_path):
    out = tmp_path / "diag"
    assert main(["diagnose", small_cfg, "-o", str(out)]) == EXIT_OK
    report = json.loads((out / "diagnostics.json").read_text())
    jsonschema.validate(report, _schema())
    assert report["energy_drift"] is not None
    assert report["lyapunov"] is not None
    assert not report["lyapunov"]["failed"]
    assert 3.5 <= report["convergence_order"] <= 4.5


def test_run_scenario_api_returns_manifest(small_cfg, tmp_path):
    manifest = run_scenario(small_cfg, str(tmp_path / "out"))
    jsonschema.validate(manifest, _schema("manifest"))
    assert manifest["status"] == "completed"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["params"]["m"] == 1.0


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_duration_counts_reading_the_config(command, small_cfg, tmp_path,
                                            monkeypatch):
    # duration_seconds is the command's wall time: its clock starts before
    # the config is read
    import semiosc.cli as cli
    read = cli.read_config_text

    def slow_read(ref):
        time.sleep(0.05)
        return read(ref)

    monkeypatch.setattr(cli, "read_config_text", slow_read)
    out = tmp_path / command
    assert main([command, small_cfg, "-o", str(out)]) == EXIT_OK
    manifest = _manifest(out)
    assert manifest["duration_seconds"] >= 0.05


def _readme_manifest_tables():
    """README's manifest.json key set, and its `outputs` keys by command."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### `manifest.json`", 1)[1].split("\n#", 1)[0]
    key_rows, output_rows = [block.splitlines()[2:]
                             for block in section.split("\n\n")
                             if block.startswith("|")]

    def names(line, cell):
        return re.findall(r"`([^`]+)`", line.split("|")[cell])

    keys = {names(line, 1)[0] for line in key_rows}
    outputs = {command: set(names(line, 2))
               for line in output_rows for command in names(line, 1)}
    return keys, outputs


def test_readme_manifest_table_matches_every_manifest(small_cfg, tmp_path):
    keys, outputs = _readme_manifest_tables()
    schema = _schema("manifest")  # the table's authority
    assert keys == set(schema["required"]) == set(schema["properties"])
    (tmp_path / "e.sweep").write_text(
        "base = small.cfg\naxis = e\nvalues = 1.0, 0.5\n")
    manifests = {}
    for command, ref in (("simulate", small_cfg), ("diagnose", small_cfg),
                         ("sweep", str(tmp_path / "e.sweep"))):
        assert main([command, ref, "-o", str(tmp_path / command)]) == EXIT_OK
        manifests[command] = _manifest(tmp_path / command)
    manifests["sweep-leg"] = _manifest(tmp_path / "sweep" / "leg00")
    assert set(outputs) == set(manifests)
    for command, manifest in manifests.items():
        assert manifest["command"] == command
        assert set(manifest) == keys
        assert set(manifest["outputs"]) == outputs[command]
    for leg in manifests["sweep"]["outputs"]["legs"]:
        assert set(leg) == outputs["sweep-leg"]


def test_params_is_a_json_object_in_report_and_sweep_manifest(small_cfg,
                                                               tmp_path):
    # json writes a named tuple as an array; the config's params stay nested
    (tmp_path / "e.sweep").write_text(
        "base = small.cfg\naxis = e\nvalues = 1.0, 0.5\n")
    assert main(["simulate", small_cfg, "-o", str(tmp_path / "run")]) == EXIT_OK
    assert main(["sweep", str(tmp_path / "e.sweep"), "-o",
                 str(tmp_path / "sweep")]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    manifest = _manifest(tmp_path / "sweep")
    for params in (report["scenario"]["params"],
                   manifest["config"]["base"]["params"]):
        assert params == {"m": 1.0, "e": 1.0, "hbar": 1.0}


# ---------------------------------------------------------------------------
# fresh interpreters: start-up; test_runtime_only.py runs the commands
# ---------------------------------------------------------------------------

def test_cli_import_leaves_numpy_out(tmp_path):
    proc = run_python(["-c", "import sys, semiosc.cli\n"
                       "assert 'numpy' not in sys.modules, 'numpy imported'\n"],
                      tmp_path, block_numpy=False)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_dataclasses_and_inspect_out(tmp_path):
    # the records are named tuples: a command's start-up builds no dataclass
    proc = run_python(["-c", "import sys, semiosc.cli\n"
                       "loaded = {'dataclasses', 'inspect'} & set(sys.modules)\n"
                       "assert not loaded, f'{loaded} imported'\n"], tmp_path)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the input domain of main()
# ---------------------------------------------------------------------------

PROBES = ("nan", "inf", "1e308", "1e-320", "0", "-1", "1e18", "abc", "", "0x10")
# what an arithmetic error's str() reads; no detail main() prints holds it
BARE_TEXT = ("Numerical result out of range", "division by zero",
             "math domain error")
TINY = {"m": "1.0", "e": "1.0", "hbar": "1.0", "A0": "1.0", "Adot0": "1.0",
        "t_end": "0.01", "dt": "0.002", "sample_every": "2", "rho0": "1.0",
        "rhodot0": "0.0"}

overrides_st = st.lists(st.sampled_from(sorted(SCENARIO_KEYS)), max_size=3,
                        unique=True).flatmap(lambda keys: st.fixed_dictionaries(
    {k: st.sampled_from(dynamics.CHOICES.get(k, PROBES)) for k in keys}))


@given(command=st.sampled_from(["simulate", "diagnose"]), overrides=overrides_st)
@example(command="simulate", overrides={"e": "1e308"})  # (e A0)^2 overflows
# no Benettin segment survives t_end = 0.01: the report's Lyapunov value is null
@example(command="diagnose", overrides={})
@settings(max_examples=120, deadline=None)
def test_main_runs_or_exits_with_a_documented_code(command, overrides):
    text = "".join(f"{k} = {v}\n" for k, v in {**TINY, **overrides}.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stderr(err):
        for module in (dynamics, diagnostics):
            mp.setattr(module, "MAX_RK4_STEPS", 2000)
        mp.setattr(dynamics, "MAX_STEP_ATTEMPTS", 200)
        cfg, out = os.path.join(tmp, "c.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(text)
        code = main([command, cfg, "-o", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ABORT, EXIT_IO), \
            (text, err.getvalue())
        if code == EXIT_CONFIG:
            assert not any(bare in err.getvalue() for bare in BARE_TEXT), \
                (text, err.getvalue())
        if code == EXIT_ABORT:
            assert os.path.isfile(os.path.join(out, "manifest.json"))
            assert read_timeseries_csv(os.path.join(out, "timeseries.csv"))
        if code == EXIT_OK:
            read_timeseries_csv(os.path.join(out, "timeseries.csv"))  # finite
            jsonschema.validate(_strict_json(os.path.join(out, "manifest.json")),
                                _schema("manifest"))
            jsonschema.validate(_strict_json(os.path.join(out, "diagnostics.json")),
                                _schema())


# Each start key set alone to each extreme, on every representation, method
# and quantum_init, with TINY's other values: 180 simulate runs per key, and
# how many of them exit 0, 2 and 3.  The six explicit rhodot0 = 1e100 starts
# exit 3 in their first step: p2 ~ 1e200 overflows.
EXTREMES = (1e-300, 1e-200, 1e-154, 1e-120, 1e-100, 1e100, 1e154, 1e200,
            1e300, -1e300)
EXTREME_EXITS = {"m": (0, 180, 0), "e": (90, 90, 0), "hbar": (90, 60, 30),
                 "A0": (90, 66, 24), "Adot0": (90, 66, 24),
                 "rho0": (120, 60, 0), "rhodot0": (150, 24, 6)}


@pytest.mark.parametrize("key", EXTREME_EXITS)
def test_extreme_start_runs_or_exits_naming_its_key(key, tmp_path, capsys,
                                                     monkeypatch):
    for module in (dynamics, diagnostics):
        monkeypatch.setattr(module, "MAX_RK4_STEPS", 2000)
    monkeypatch.setattr(dynamics, "MAX_STEP_ATTEMPTS", 200)
    cfg, out = tmp_path / "c.cfg", str(tmp_path / "out")
    codes = []
    for value, *choices in itertools.product(
            EXTREMES, *dynamics.CHOICES.values()):
        overrides = {key: repr(value), **dict(zip(dynamics.CHOICES, choices))}
        cfg.write_text("".join(f"{k} = {v}\n"
                               for k, v in {**TINY, **overrides}.items()))
        codes.append(main(["simulate", str(cfg), "-o", out]))
        err = capsys.readouterr().err
        assert not any(bare in err for bare in BARE_TEXT), (overrides, err)
        if codes[-1] == EXIT_CONFIG:
            detail = json.loads(err)["detail"].removeprefix(f"{cfg}: ")
            assert re.search(rf"\b{key}\b", detail), (overrides, detail)
            assert str(value) in detail, (overrides, detail)
    assert tuple(map(codes.count, (EXIT_OK, EXIT_CONFIG, EXIT_ABORT))) == \
        EXTREME_EXITS[key]
