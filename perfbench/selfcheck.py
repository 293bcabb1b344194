"""Steadiness self-check: sets of benchmark runs of the same code, compared
against the bounds BENCHMARK.json fixes.

    python3 perfbench/selfcheck.py

Two sets each run every workload ten times for run_seconds, a fresh seed per
run.  For every end-to-end metric it reports the quartile spread
(q3 - q1) / median of each set, and how far the second set's median moved
from the first in the metric's worse direction.  Both the spreads and the
move must stay within the metric's bound (a third of it is the target for
a spread).  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUNS = 10
SETS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int
             ) -> tuple[list[str], dict]:
    """One benchmark run in a fresh process: (comment lines, result)."""
    spec = load_spec()
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return [ln for ln in lines[:-1] if ln.startswith("#")], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    values = {(s, w): {} for s in range(SETS) for w in names}
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                seed = 1000 * (s + 1) + i
                _, result = run_once(w, seed, spec["run_seconds"], trace=0)
                if not result["correct"]:
                    ok = False
                    print(f"INCORRECT {w} seed {seed}: {result}")
                for name, m in result["metrics"].items():
                    values[(s, w)].setdefault(name, []).append(m["value"])
                print(f"set {s} run {i} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)

    print(f"\n{'workload':16} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}"
                     for s in range(SETS)) + "   move   verdict")
    for w in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = [statistics.median(values[(s, w)][name]) for s in range(SETS)]
            spreads = [spread(values[(s, w)][name]) for s in range(SETS)]
            move = (meds[-1] - meds[0]) / meds[0]
            if metric["better"] == "higher":
                move = -move
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD>BOUND")
            elif max(spreads) > bound / 3:
                verdict.append("spread>bound/3")
            if move > bound:
                verdict.append("MOVE>BOUND")
            ok = ok and not any(v.isupper() for v in verdict)
            print(f"{w:16} {name:12} {bound:6.2f} "
                  + " ".join(f"{m:10.4g} {sp:8.3f}" for m, sp in zip(meds, spreads))
                  + f" {move:+6.3f}   {' '.join(verdict) or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
