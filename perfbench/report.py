"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 perfbench/report.py

Runs each workload with seed 0 for run_seconds, once untraced (end-to-end
metrics) and once traced (per-layer metrics and kernel microbenchmarks),
each in a fresh process, and prints the run descriptions followed by name,
value and unit per metric.
Exits 1 when any output check failed.
"""

from __future__ import annotations

import sys

from selfcheck import load_spec, run_once

SEED = 0


def main() -> int:
    spec = load_spec()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            comments, result = run_once(workload, SEED, spec["run_seconds"], trace)
            ok = ok and result["correct"]
            print(f"== {workload}, trace {trace}, seed {SEED}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in comments:
                print(line)
            for name, metric in result["metrics"].items():
                print(f"   {name:46} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
