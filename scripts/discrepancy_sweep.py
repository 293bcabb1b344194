#!/usr/bin/env python3
"""Coupling sweep on the adiabatic family: the e^4 law and its e^6 remainder.

Prints one row per coupling plus the fitted power of max|N_ours - N_cdms|,
and writes overlay/difference plots for the largest coupling.
"""

import os
import sys

from semiosc import discrepancy_scaling, integrate, load_scenario, scenario_with
from semiosc.cli import emit_plot


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("out", "sweep")
    os.makedirs(outdir, exist_ok=True)
    base = load_scenario("adiabatic")
    couplings = [0.2, 0.1, 0.05, 0.025]
    res = discrepancy_scaling(base, couplings)
    print(f"{'e':>8s} {'max|dN|':>12s} {'remainder':>12s}")
    for e, amp, rem in zip(res.couplings, res.amplitudes, res.remainders):
        print(f"{e:8.3f} {amp:12.4e} {rem:12.4e}")
    print(f"fitted power of max|dN| vs e: {res.power:.4f}  (leading order: 4)")
    for i in range(len(couplings) - 1):
        ratio = res.remainders[i] / res.remainders[i + 1]
        print(f"remainder ratio {couplings[i]} -> {couplings[i + 1]}: "
              f"{ratio:6.1f}  (e^6 law: 64)")

    records = integrate(scenario_with(base, sample_every=1,
                                      e=couplings[0])).records
    for kind, fname in (("number-overlay", "overlay.svg"),
                        ("number-difference", "difference.svg")):
        path = os.path.join(outdir, fname)
        emit_plot(records, kind, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
