"""Command-line runner: scenarios, sweeps, plots, diagnostics.

Commands
    simulate <config> -o <dir>     time series CSV + diagnostics JSON + SVG
    sweep <sweepfile> -o <dir>     one subdirectory per leg + aggregate CSV
    plot <csv> --kind <k> -o <f>   re-plot an existing time series
    diagnose <config> -o <dir>     heavy diagnostics (Lyapunov, order)

Exit codes: 0 success, 2 config error, 3 runtime abort, 4 I/O error.
CSV and SVG bytes are deterministic for a given config and package version.
"""

import argparse
import json
import math
import os
import sys
import time
from array import array

from . import __version__
from .config import (
    ConfigError,
    load_sweep,
    read_config_text,
    parse_scenario_text,
)
from .core import SemiquantumError, UsageError
from .diagnostics import (
    energy_drift,
    convergence_order,
    lyapunov_max,
    max_abs_discrepancy,
    max_abs_remainder,
    power_law_fit,
    structure_count,
)
from .dynamics import (
    COLUMNS,
    STATUS_COMPLETED,
    Records,
    ScenarioConfig,
    Trajectory,
    checked_start,
    columns_from_rows,
    integrate,
    scenario_with,
)
from .svgplot import render_line_plot

__all__ = [
    "PLOT_KINDS",
    "write_timeseries_csv",
    "read_timeseries_csv",
    "emit_plot",
    "run_scenario",
    "run_sweep",
    "run_diagnose",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4

PLOT_KINDS = ("number-overlay", "number-difference", "energy", "phase-A")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


_CSV_ROW = ",".join(["%.17g"] * len(COLUMNS)) + "\n"


def write_timeseries_csv(records: Records, path: str) -> None:
    """Fixed column order, 17 significant digits, LF newlines."""
    rows = zip(*(records.columns[name] for name in COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        fh.writelines(map(_CSV_ROW.__mod__, rows))


def read_timeseries_csv(path: str) -> Records:
    """Load a time-series CSV produced by this package."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, ln) for lineno, ln
                 in enumerate(fh.read().splitlines(), start=1) if ln]
    if not lines:
        raise UsageError(f"{path}: empty time-series file")
    if tuple(lines[0][1].split(",")) != COLUMNS:
        raise UsageError(f"{path}: header does not match the time-series schema")
    rows = array("d")
    for lineno, ln in lines[1:]:
        values = ln.split(",")
        if len(values) != len(COLUMNS):
            raise UsageError(f"{path}:{lineno}: {len(values)} fields, "
                             f"expected {len(COLUMNS)}")
        try:
            row = tuple(map(float, values))
        except ValueError:
            raise UsageError(f"{path}:{lineno}: not a number in {ln!r}") from None
        if not all(map(math.isfinite, row)):
            raise UsageError(f"{path}:{lineno}: non-finite value in {ln!r}")
        rows.extend(row)
    return Records(columns_from_rows(rows))


def emit_plot(records: Records, kind: str, path: str) -> None:
    """Write one standalone SVG for the given records."""
    if not records:
        raise UsageError("no records to plot")
    if kind not in PLOT_KINDS:
        raise UsageError(f"unknown plot kind {kind!r}; choose from "
                         f"{', '.join(PLOT_KINDS)}")
    cols = records.columns
    t = cols["t"]
    annotations = []
    if kind == "number-overlay":
        curves = [("N_ours", t, cols["N_ours"]), ("N_cdms", t, cols["N_cdms"])]
        title, xlabel, ylabel = "Occupation number", "t", "N"
    elif kind == "number-difference":
        curves = [("N_ours - N_cdms", t,
                   [a - b for a, b in zip(cols["N_ours"], cols["N_cdms"])])]
        title, xlabel, ylabel = "Occupation-number difference", "t", "dN"
    elif kind == "energy":
        etot = cols["Etot"]
        curves = [("Etot", t, etot)]
        title, xlabel, ylabel = "Total energy", "t", "Etot"
        if len(etot) >= 2 and etot[0] != 0.0:
            annotations.append(
                f"relative Etot drift = {_fmt(energy_drift(cols))}")
    else:  # phase-A
        curves = [("trajectory", cols["A"], cols["Adot"])]
        title, xlabel, ylabel = "Classical phase portrait", "A", "dA/dt"
    svg = render_line_plot(curves, title=title, xlabel=xlabel, ylabel=ylabel,
                           annotations=annotations)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_dict(config: ScenarioConfig) -> dict:
    """A config as a JSON object, with params a nested object: a named tuple
    handed to json would be written as an array."""
    return {**config._asdict(), "params": config.params._asdict()}


def _write_manifest(outputs: dict, *, command: str, source: str, config: dict,
                    status: str, start: float, warnings: list[str],
                    abort_time: float | None = None,
                    abort_reason: str | None = None) -> dict:
    """Write manifest.json, what a command ran and how it ended, to
    outputs["manifest"] and return it.  Its duration counts from `start`."""
    manifest = {"command": command, "config_source": source, "config": config,
                "version": __version__, "status": status,
                "duration_seconds": time.perf_counter() - start,
                "outputs": outputs, "warnings": warnings,
                "abort_time": abort_time, "abort_reason": abort_reason}
    _write_json(manifest, outputs["manifest"])
    return manifest


def _series_metrics(cols: dict) -> dict:
    """The light per-run metrics, read off a run's columns; None where the
    series is too short for one."""
    n = len(cols["t"])
    return {
        "energy_drift": (energy_drift(cols)
                         if n >= 2 and cols["Etot"][0] != 0.0 else None),
        "extrema_ours": structure_count(cols["N_ours"]) if n >= 3 else None,
        "extrema_cdms": structure_count(cols["N_cdms"]) if n >= 3 else None,
        "max_abs_discrepancy": max_abs_discrepancy(cols),
        "max_abs_remainder": max_abs_remainder(cols),
    }


def _run_one(traj: Trajectory, start: float, source: str, outdir: str,
             command: str, heavy: dict | None = None,
             extra_warnings=()) -> tuple[dict, dict]:
    """Write one run's CSV, diagnostics.json, overlay and manifest from its
    trajectory `traj` = integrate(traj.config); return the manifest and the
    diagnostics report.  The manifest's duration counts from `start`, taken
    before simulate or diagnose reads its config, or before a sweep leg is
    integrated.  `heavy` sets `lyapunov` and diagnose's `convergence_order`;
    `extra_warnings` follow the abort warning."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "timeseries.csv")
    write_timeseries_csv(traj.records, csv_path)
    report = {
        "version": __version__,
        "scenario": _config_dict(traj.config),
        "status": traj.status,
        "abort_time": traj.abort_time,
        "abort_reason": traj.abort_reason,
        **_series_metrics(traj.columns),
        "lyapunov": None,
        "convergence_order": None,
        **(heavy or {}),
    }
    report_path = os.path.join(outdir, "diagnostics.json")
    _write_json(report, report_path)
    overlay = os.path.join(outdir, "number_overlay.svg")
    emit_plot(traj.records, "number-overlay", overlay)
    outputs = {"timeseries_csv": csv_path, "diagnostics_json": report_path,
               "plots": [overlay],
               "manifest": os.path.join(outdir, "manifest.json")}
    aborted = [] if traj.completed else [
        f"run aborted at t={traj.abort_time}: {traj.abort_reason}"]
    manifest = _write_manifest(
        outputs, command=command, source=source, config=report["scenario"],
        status=traj.status, start=start, warnings=[*aborted, *extra_warnings],
        abort_time=traj.abort_time, abort_reason=traj.abort_reason)
    return manifest, report


def run_scenario(config_ref: str, output_dir: str) -> dict:
    """simulate: integrate one scenario and write CSV, report, and overlay plot."""
    start = time.perf_counter()
    text, source = read_config_text(config_ref)
    config = parse_scenario_text(text, source=source)
    manifest, _ = _run_one(integrate(config), start, source, output_dir,
                           "simulate")
    return manifest


def run_diagnose(config_ref: str, output_dir: str) -> dict:
    """diagnose: like simulate plus Lyapunov and observed convergence order.

    The main run is integrated once; both studies read its rows, through
    diagnostics._main_rows, where they would make that run themselves: it
    names its config (traj.config), which is theirs (see lyapunov_max and
    convergence_order)."""
    start = time.perf_counter()
    text, source = read_config_text(config_ref)
    config = parse_scenario_text(text, source=source)
    traj = integrate(config)
    lyap = lyapunov_max(config, main=traj)
    heavy = {"lyapunov": lyap.to_dict()}
    warnings = [f"lyapunov estimate flagged: {lyap.note}"] if lyap.failed else []
    try:
        heavy["convergence_order"] = convergence_order(config, main=traj)
    except SemiquantumError as exc:
        warnings.append(f"convergence order failed: {exc}")
    manifest, _ = _run_one(traj, start, source, output_dir, "diagnose",
                           heavy, warnings)
    return manifest


_AGGREGATE_HEADER = ("leg", "axis", "value", "status", "max_abs_discrepancy",
                     "max_abs_remainder", "energy_drift", "lyapunov",
                     "extrema_ours", "extrema_cdms")


def run_sweep(sweep_path: str, output_dir: str) -> dict:
    """sweep: run every leg, aggregate metrics, fit the discrepancy power.

    Every leg's config and start (checked_start) are checked before anything
    is written: a value no leg can take or start from is a ConfigError naming
    the sweep file and `values`.  A failed leg is recorded and skipped; the
    aggregate marks it and the command still exits 0 (with warnings in the
    manifest).  A completed leg's report carries its Lyapunov estimate.  A
    metric a leg's series is too short for reads nan, or -1 for the extrema
    counts.
    """
    start = time.perf_counter()
    spec, base = load_sweep(sweep_path)
    try:
        configs = [scenario_with(base, **{spec.axis: v}) for v in spec.values]
        for config in configs:
            checked_start(config)
    except SemiquantumError as exc:
        raise ConfigError(str(exc), source=sweep_path, key="values") from exc
    os.makedirs(output_dir, exist_ok=True)
    lines = [",".join(_AGGREGATE_HEADER)]
    warnings = []
    leg_outputs = []
    completed_values = []
    completed_amps = []
    for i, (value, config) in enumerate(zip(spec.values, configs)):
        leg_start = time.perf_counter()
        traj = integrate(config)
        heavy = None
        if traj.completed:
            heavy = {"lyapunov": lyapunov_max(config, main=traj).to_dict()}
        manifest, report = _run_one(
            traj, leg_start, f"{sweep_path}[{spec.axis}={value}]",
            os.path.join(output_dir, f"leg{i:02d}"), "sweep-leg", heavy)
        leg_outputs.append(manifest["outputs"])
        if traj.completed:
            completed_values.append(value)
            completed_amps.append(report["max_abs_discrepancy"])
        else:
            warnings.append(f"leg {i} ({spec.axis}={value}) aborted: "
                            f"{traj.abort_reason}")
        lyapunov = report["lyapunov"]
        metrics = (report["max_abs_discrepancy"], report["max_abs_remainder"],
                   report["energy_drift"], lyapunov and lyapunov["value"])
        counts = (report["extrema_ours"], report["extrema_cdms"])
        lines.append(",".join([
            str(i), spec.axis, _fmt(value), traj.status,
            *(_fmt(math.nan if v is None else v) for v in metrics),
            *(str(-1 if c is None else c) for c in counts)]))

    if spec.axis == "e":
        power, note = power_law_fit(completed_values, completed_amps)
    else:
        power, note = None, f"no discrepancy power fit for axis {spec.axis!r}"
    if note:
        warnings.append(note)

    agg_path = os.path.join(output_dir, "aggregate.csv")
    with open(agg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    outputs = {"aggregate_csv": agg_path, "legs": leg_outputs,
               "discrepancy_power": power,
               "manifest": os.path.join(output_dir, "manifest.json")}
    return _write_manifest(
        outputs, command="sweep", source=sweep_path,
        config={"base": _config_dict(base), "axis": spec.axis,
                "values": list(spec.values)},
        status=STATUS_COMPLETED, start=start, warnings=warnings)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiosc",
        description="Semiquantum oscillator simulator")
    parser.add_argument("--version", action="version",
                        version=f"semiosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario config")
    p.add_argument("config", help="config file path or bundled scenario name")
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = sub.add_parser("sweep", help="run a parameter sweep file")
    p.add_argument("config", metavar="sweepfile", help="sweep file path")
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = sub.add_parser("plot", help="plot an existing time-series CSV")
    p.add_argument("csv", help="time-series CSV path")
    p.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p.add_argument("-o", "--output", required=True, help="output SVG path")

    p = sub.add_parser("diagnose", help="run heavy diagnostics on a scenario")
    p.add_argument("config", help="config file path or bundled scenario name")
    p.add_argument("-o", "--output", required=True, help="output directory")
    return parser


def _fail(kind: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            emit_plot(read_timeseries_csv(args.csv), args.kind, args.output)
            return EXIT_OK
        run = {"simulate": run_scenario, "diagnose": run_diagnose,
               "sweep": run_sweep}[args.command]
        manifest = run(args.config, args.output)
        if manifest["status"] != STATUS_COMPLETED:
            _fail("runtime-abort",
                  f"{manifest['status']} at t={manifest['abort_time']}: "
                  f"{manifest['abort_reason']}")
            return EXIT_ABORT
        for w in manifest["warnings"]:
            sys.stderr.write(f"warning: {w}\n")
        return EXIT_OK
    except OSError as exc:
        _fail("io", str(exc))
        return EXIT_IO
    except SemiquantumError as exc:  # config, start and CSV errors
        _fail("config", str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
