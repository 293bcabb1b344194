"""Record the SHA-256 of every timeseries.csv the workloads produce.

    python3 perfbench/record_digests.py

For seeds 0-9 of every workload it runs the command once, checks its outputs
and writes the digests to perfbench/digests.json.  run.py then fails any run
on a recorded seed whose CSV bytes differ: speed must never change output.
Re-record only for an intended numeric change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, run.SRC)
    checker = run.make_checker({})
    recorded = {}
    for workload in workloads.WORKLOADS:
        recorded[workload] = {}
        for seed in SEEDS:
            workdir = os.path.join(run.WORK, f"digests-{workload}-s{seed}")
            os.makedirs(workdir, exist_ok=True)
            try:
                inputs = workloads.generate(workload, seed, workdir)
                outdir = os.path.join(workdir, "out")
                _, code, _ = run.spawn([sys.executable, "-m", "semiosc"]
                                       + run.command_argv(inputs, outdir), workdir)
                problems, digests = checker.check(inputs, seed, outdir, code)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                print(f"{workload} seed {seed}: {problems}")
                return 1
            recorded[workload][str(seed)] = digests
            print(f"{workload} seed {seed}: {digests[0][:16]}...", flush=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
