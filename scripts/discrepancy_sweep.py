#!/usr/bin/env python3
"""Coupling sweep on the adiabatic family: the e^4 law and its e^6 remainder.

Writes a sweep file over the couplings into the output directory and runs
the `sweep` command there.  Prints one row per coupling from the legs'
reports plus the fitted power of max|N_ours - N_cdms| from the sweep
manifest, and draws overlay/difference plots from the largest coupling's
leg.
"""

import json
import os
import sys

from semiosc.cli import emit_plot, read_timeseries_csv, run_sweep


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("out", "sweep")
    os.makedirs(outdir, exist_ok=True)
    couplings = [0.2, 0.1, 0.05, 0.025]
    sweep = os.path.join(outdir, "coupling.sweep")
    with open(sweep, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("base = adiabatic\naxis = e\n"
                 f"values = {', '.join(map(str, couplings))}\n")
    manifest = run_sweep(sweep, outdir)
    legs = manifest["outputs"]["legs"]
    reports = []
    for leg in legs:
        with open(leg["diagnostics_json"], encoding="utf-8") as fh:
            reports.append(json.load(fh))
    print(f"{'e':>8s} {'max|dN|':>12s} {'remainder':>12s}")
    for e, r in zip(couplings, reports):
        print(f"{e:8.3f} {r['max_abs_discrepancy']:12.4e} "
              f"{r['max_abs_remainder']:12.4e}")
    power = manifest["outputs"]["discrepancy_power"]
    print(f"fitted power of max|dN| vs e: {power:.4f}  (leading order: 4)")
    for i in range(len(couplings) - 1):
        ratio = (reports[i]["max_abs_remainder"]
                 / reports[i + 1]["max_abs_remainder"])
        print(f"remainder ratio {couplings[i]} -> {couplings[i + 1]}: "
              f"{ratio:6.1f}  (e^6 law: 64)")

    records = read_timeseries_csv(legs[0]["timeseries_csv"])
    for kind, fname in (("number-overlay", "overlay.svg"),
                        ("number-difference", "difference.svg")):
        path = os.path.join(outdir, fname)
        emit_plot(records, kind, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
