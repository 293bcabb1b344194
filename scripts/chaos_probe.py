#!/usr/bin/env python3
"""Chaos indicators for the coupled scenarios.

Largest Lyapunov exponent (Benettin), energy drift, and local-maximum counts
of the two occupation series at two noise floors.
"""

import sys

from semiosc import energy_drift, integrate, load_scenario, lyapunov_max, structure_count


def main() -> int:
    names = sys.argv[1:] or ["free", "vacuum-kick", "strong"]
    print(f"{'scenario':>12s} {'lambda':>12s} {'drift':>10s} "
          f"{'maxima(ours/cdms) @1e-9':>24s} {'@1e-6':>12s}")
    for name in names:
        cfg = load_scenario(name)
        traj = integrate(cfg)
        if not traj.completed:
            print(f"{name:>12s}  aborted: {traj.abort_reason}")
            continue
        est = lyapunov_max(cfg, main=traj)
        cols = traj.columns
        drift = energy_drift(cols)
        n_ours, n_cdms = cols["N_ours"], cols["N_cdms"]
        fine = f"{structure_count(n_ours)}/{structure_count(n_cdms)}"
        coarse = f"{structure_count(n_ours, 1e-6)}/{structure_count(n_cdms, 1e-6)}"
        print(f"{name:>12s} {est.value:12.4e} {drift:10.2e} {fine:>24s} {coarse:>12s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
