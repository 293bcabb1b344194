#!/usr/bin/env python3
"""Run every bundled scenario and drop the artifacts under out/scenarios/."""

import os
import sys

from semiosc import bundled_scenario_names
from semiosc.cli import run_scenario


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join("out", "scenarios")
    for name in bundled_scenario_names():
        manifest = run_scenario(name, os.path.join(root, name))
        print(f"{name:12s} {manifest['status']:22s} "
              f"{manifest['duration_seconds']:6.2f}s -> {manifest['outputs']['timeseries_csv']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
