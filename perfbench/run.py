"""semiosc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload simulate-dense --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it needs ``src/semiosc`` and
nothing installed.  ``--trace 0`` spawns ``python -m semiosc ...`` once per
command (a closed loop, one command at a time) and reports the end-to-end
metrics; ``--trace 1`` calls ``semiosc.cli.main(argv)`` in this process,
untraced and traced in turn, and reports per-layer metrics and kernel
microbenchmarks.  Every command's outputs are checked (workloads.py).

Lines starting with ``#`` describe the run (provenance, sample counts, the
trace breakdown); the last line is the JSON result.  Scratch files live in
``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# So that a percentile with ten samples beyond it exists.  A 30 s run times
# only 13-20 commands, so that percentile lies between p23 and p50: it is a
# low order statistic, printed in the ``# wall_s`` line, and not a metric.
MIN_COMMANDS = 11

# On a shared 2-vCPU host the speed one process sees drifts by up to 60 %
# over tens of seconds.  Every timed process is therefore paired with the
# reference processes run just before and after it, a fixed interpreter
# start plus a fixed float loop that no change to the repository can touch,
# and reported as its wall time scaled to a machine on which the reference
# takes REFERENCE_S.  Scaling per pair cancels most of the drift: there, the
# run-to-run spread (IQR / median) of wall_s fell from about 0.2 to 0.03-0.05.
REFERENCE_S = 0.1
REFERENCE_CODE = ("y = (1.0, 0.5, 0.25, 0.125)\n"
                  "for _ in range(18000):\n"
                  "    k = tuple(a * 0.999 + 1e-3 for a in y)\n"
                  "    y = tuple(a + 1e-3 * b for a, b in zip(y, k))\n")
SETUP_CODE = ("import sys, semiosc.cli\n"
              "from semiosc.config import load_scenario, load_sweep\n"
              "(load_sweep if sys.argv[1] == 'sweep' else load_scenario)"
              "(sys.argv[2])\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: str) -> tuple[float, int, float]:
    """Run one process to completion: (wall s, exit code, peak RSS MB)."""
    err_path = os.path.join(cwd, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_checker(digests: dict) -> workloads.OutputChecker:
    from semiosc import COLUMNS
    return workloads.OutputChecker(ROOT, COLUMNS, digests)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def provenance() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "semiosc")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0))}


class Tally:
    """Commands attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# check failed: {'; '.join(problems[:3])}", flush=True)


def command_argv(inputs: workloads.Inputs, outdir: str) -> list[str]:
    return [inputs.command, inputs.path, "-o", outdir]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(values)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run_end_to_end(inputs, seed, seconds, checker, workdir, tally) -> dict:
    py = sys.executable
    outdir = os.path.join(workdir, "out")
    command = [py, "-m", "semiosc"] + command_argv(inputs, outdir)
    setup_probe = [py, "-c", SETUP_CODE, inputs.command, inputs.path]
    reference = [py, "-c", REFERENCE_CODE]

    def reference_wall():
        wall, code, _ = spawn(reference, workdir)
        if code:
            raise RuntimeError(f"reference process exited {code}")
        return wall

    def one_attempt(ref_before):
        """Command, reference, set-up interpreter, reference."""
        wall, code, rss = spawn(command, workdir)
        problems, _ = checker.check(inputs, seed, outdir, code)
        shutil.rmtree(outdir, ignore_errors=True)
        ref_mid = reference_wall()
        setup, code, _ = spawn(setup_probe, workdir)
        if code:
            problems.append(f"set-up interpreter exit code {code}")
        ref_after = reference_wall()
        tally.record(problems)
        return (wall, 2.0 * REFERENCE_S / (ref_before + ref_mid), rss,
                setup, 2.0 * REFERENCE_S / (ref_mid + ref_after), ref_after)

    ref = reference_wall()
    ref = one_attempt(ref)[-1]  # warm-up: page cache, first-run effects
    raw_walls, walls, rss, raw_setup, setup = [], [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_COMMANDS:
        wall, wall_scale, peak, probe, probe_scale, ref = one_attempt(ref)
        raw_walls.append(wall)
        walls.append(wall * wall_scale)
        rss.append(peak)
        raw_setup.append(probe)
        setup.append(probe * probe_scale)
    tail_value, tail_pct = tail(walls)
    print(f"# wall_s: {len(walls)} commands, median {statistics.median(walls):.4f}"
          f" s, p{tail_pct:.0f} {tail_value:.4f} s at reference speed; as "
          f"measured: median {statistics.median(raw_walls):.4f} s, max "
          f"{max(raw_walls):.4f} s.  setup_s: {len(setup)} interpreters, median "
          f"{statistics.median(setup):.4f} s at reference speed, "
          f"{statistics.median(raw_setup):.4f} s as measured")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def run_traced(inputs, seed, seconds, checker, workdir, tally) -> dict:
    import tracing
    from semiosc import cli
    from semiosc.config import load_scenario, load_sweep
    from semiosc.dynamics import scenario_with

    outdir = os.path.join(workdir, "out")
    argv = command_argv(inputs, outdir)

    def one_call(main):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed command
            print(f"# command raised {exc!r}", flush=True)
            code = -1
        wall = time.perf_counter() - start
        tally.record(checker.check(inputs, seed, outdir, code)[0])
        shutil.rmtree(outdir, ignore_errors=True)
        return wall

    one_call(cli.main)  # warm-up
    untraced, traced, per_run = [], [], []
    states = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        untraced.append(one_call(cli.main))
        tracer = tracing.Tracer(keep_states=not states)
        with tracing.installed(tracer) as traced_main:
            wall = one_call(traced_main)
        traced.append(wall)
        per_run.append(tracing.summarize(tracer.spans, wall))
        states = states or tracer.states
    # The spans of the last traced command, for inspection.
    tracing.write_spans(tracer.spans,
                        os.path.join(WORK, f"spans-{inputs.workload}.txt"))

    metrics = {name: statistics.median(run[0][name] for run in per_run)
               for name in per_run[0][0]}
    share = statistics.median(run[1][inputs.command] for run in per_run)
    largest = per_run[-1][2]
    claims = {"simulate": ("observe + CSV + SVG self time", share > 0.5),
              "diagnose": ("order + Lyapunov + integrate stepping", share > 0.8),
              "sweep": (f"integrate total (largest span: {largest})",
                        largest == "dynamics.integrate")}
    claim, holds = claims[inputs.command]
    print(f"# stress: {claim} = {share:.3f} of traced wall "
          f"({'holds' if holds else 'DOES NOT HOLD'}); "
          f"{len(traced)} traced / {len(untraced)} untraced commands")
    metrics["trace.stress_share"] = share
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)

    if inputs.command == "sweep":
        spec, base = load_sweep(inputs.path)
        config = scenario_with(base, e=spec.values[0])
    else:
        config = load_scenario(inputs.path)
    metrics.update(tracing.microbenchmarks(states, config.dt))
    metrics["dynamics.retained_bytes_per_sample"] = \
        tracing.retained_bytes_per_sample(config)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and every child, so that a command and its
    # paired reference processes meet the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "semiosc", "__init__.py")):
        sys.stderr.write(f"perfbench: no semiosc sources under {SRC}; run from "
                         "the root of a semiosc checkout\n")
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    try:
        inputs = workloads.generate(args.workload, args.seed, workdir)
        checker = make_checker(load_digests())
        print("# provenance " + json.dumps(provenance(), sort_keys=True),
              flush=True)
        run = run_traced if args.trace else run_end_to_end
        metrics = run(inputs, args.seed, args.seconds, checker, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
