"""Per-layer measurement of semiosc from outside the package.

Spans: the module globals that each caller looks up are replaced with timing
wrappers for the length of one in-process ``semiosc.cli.main(argv)`` call.
``rk4_step`` is deliberately left alone: a run makes about a million calls,
which would swamp the trace; its cost comes from the microbenchmarks and the
step counts computed from the inputs.

Microbenchmarks: per-call time of each kernel on states taken from the
workload's own trajectory.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MICRO_STATES = 24   # states per kernel, evenly spaced along the trajectory
MICRO_BATCHES = 3   # timed batches per state
MICRO_BATCH = 40    # calls per timed batch


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attributes]."""

    def __init__(self, keep_states: bool = False):
        self.spans: list[list] = []
        self.states: list = []   # (SemiState, ModelParams) seen by observe
        self._keep_states = keep_states
        self._stack: list[int] = []

    def wrap(self, name, fn, attributes=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attributes is not None:
                span[4] = attributes(result, *args, **kwargs)
            return result

        return traced

    def keep_state(self, _record, state, params):
        if self._keep_states:
            self.states.append((state, params))


def _rk4_steps(t_end: float, dt: float) -> int:
    return max(1, round(t_end / dt))


def _integrate_attributes(traj, config):
    rk4 = _rk4_steps(config.t_end, config.dt) if config.method == "rk4" else 0
    return {"samples": len(traj.records), "rk4_steps": rk4}


def _lyapunov_attributes(_estimate, config, renorm_interval=1.0, horizon=None,
                         **_kwargs):
    # Benettin steps two copies over the horizon (lyapunov_max's defaults).
    horizon = config.t_end if horizon is None else horizon
    n_seg = max(1, round(horizon / renorm_interval))
    return {"rk4_steps": 2 * n_seg * _rk4_steps(renorm_interval, config.dt)}


def _rkf45_attributes(_result, _rhs, t, _y, _h):
    return t


def _csv_attributes(_result, records, path):
    return {"rows": len(records), "bytes": os.path.getsize(path)}


def _svg_attributes(svg, *_args, **_kwargs):
    return len(svg.encode("utf-8"))


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced globals in; yields the traced ``cli.main``."""
    from semiosc import cli, diagnostics, dynamics

    targets = [
        (cli, "parse_scenario_text", "config.parse", None),
        (cli, "load_sweep", "config.parse", None),
        (cli, "integrate", "dynamics.integrate", _integrate_attributes),
        (diagnostics, "integrate", "dynamics.integrate", _integrate_attributes),
        (dynamics, "record_observables", "dynamics.observe", tracer.keep_state),
        (dynamics, "rkf45_step", "dynamics.rkf45", _rkf45_attributes),
        (cli, "convergence_order", "diagnostics.convergence_order", None),
        (cli, "lyapunov_max", "diagnostics.lyapunov_max", _lyapunov_attributes),
        (cli, "energy_drift", "diagnostics.series_metrics", None),
        (cli, "structure_count", "diagnostics.series_metrics", None),
        (cli, "max_abs_discrepancy", "diagnostics.series_metrics", None),
        (cli, "max_abs_remainder", "diagnostics.series_metrics", None),
        (cli, "write_timeseries_csv", "cli.csv_write", _csv_attributes),
        (cli, "render_line_plot", "svgplot.render", _svg_attributes),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, attributes in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr),
                                              attributes))
        yield tracer.wrap("cli.main", cli.main)
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def summarize(spans: list[list], traced_wall: float):
    """Per-layer metrics of one traced command, plus the share of its wall
    time in the layers each command claims to stress, and the name of the
    span with the largest total time.  Self time = span minus its children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - covered[i]
        calls[name] += 1

    rk4_steps = rkf45_calls = rkf45_rejected = 0
    order_legs = order_samples = 0
    rkf45_times = defaultdict(list)   # integrate span -> rkf45 call times
    csv_rows = csv_bytes = svg_bytes = 0
    for name, _, _, parent, attrs in spans:
        if name in ("dynamics.integrate", "diagnostics.lyapunov_max"):
            rk4_steps += attrs["rk4_steps"]
        if name == "dynamics.integrate" and parent >= 0 \
                and spans[parent][0] == "diagnostics.convergence_order":
            order_legs += 1
            order_samples += attrs["samples"]
        elif name == "dynamics.rkf45":
            rkf45_calls += 1
            rkf45_times[parent].append(attrs)
        elif name == "cli.csv_write":
            csv_rows += attrs["rows"]
            csv_bytes += attrs["bytes"]
        elif name == "svgplot.render":
            svg_bytes += attrs
    for times in rkf45_times.values():
        # A rejected attempt is retried from the same t.
        rkf45_rejected += sum(1 for a, b in zip(times, times[1:]) if a == b)

    stress = {
        "simulate": self_s["dynamics.observe"] + self_s["cli.csv_write"]
                    + self_s["svgplot.render"],
        "diagnose": self_s["diagnostics.convergence_order"]
                    + self_s["diagnostics.lyapunov_max"]
                    + self_s["dynamics.integrate"],
        "sweep": total["dynamics.integrate"],
    }
    metrics = {
        "config.parse.self_s": self_s["config.parse"],
        "dynamics.integrate.self_s": self_s["dynamics.integrate"],
        "dynamics.integrate.total_s": total["dynamics.integrate"],
        "dynamics.integrate.calls": calls["dynamics.integrate"],
        "dynamics.steps": rk4_steps + rkf45_calls,
        "dynamics.rhs_evals": 4 * rk4_steps + 6 * rkf45_calls,
        "dynamics.rkf45.self_s": self_s["dynamics.rkf45"],
        "dynamics.rkf45.calls": rkf45_calls,
        "dynamics.rkf45.rejected": rkf45_rejected,
        "dynamics.observe.self_s": self_s["dynamics.observe"],
        "dynamics.observe.calls": calls["dynamics.observe"],
        "diagnostics.convergence_order.self_s":
            self_s["diagnostics.convergence_order"],
        "diagnostics.convergence_order.integrate_calls": order_legs,
        # final records read / samples built; 0 when the command has no study
        "diagnostics.convergence_order.useful_ratio":
            order_legs / order_samples if order_samples else 0.0,
        "diagnostics.lyapunov_max.self_s": self_s["diagnostics.lyapunov_max"],
        "diagnostics.series_metrics.self_s": self_s["diagnostics.series_metrics"],
        "cli.csv_write.self_s": self_s["cli.csv_write"],
        "cli.csv_bytes": csv_bytes,
        "cli.csv_rows": csv_rows,
        "cli.main.self_s": self_s["cli.main"],
        "svgplot.render.self_s": self_s["svgplot.render"],
        "svgplot.svg_bytes": svg_bytes,
        "trace.wall_s": traced_wall,
    }
    largest = max((n for n in total if n != "cli.main"), key=total.__getitem__)
    return metrics, {k: v / traced_wall for k, v in stress.items()}, largest


def write_spans(spans: list[list], path: str) -> None:
    """One line per span: index, name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i} {name} {start:.9f} {end:.9f} {parent}\n")


def _per_call_us(calls) -> float:
    """Median per-call time over batches of each (function, args) pair."""
    clock = time.perf_counter_ns
    samples = []
    for fn, args in calls:
        for _ in range(MICRO_BATCHES):
            t0 = clock()
            for _ in range(MICRO_BATCH):
                fn(*args)
            samples.append((clock() - t0) / MICRO_BATCH / 1000.0)
    return statistics.median(samples)


def microbenchmarks(states, h: float) -> dict[str, float]:
    """Per-call µs of every kernel on `states` = [(SemiState, ModelParams)]."""
    from semiosc import core, dynamics

    stride = max(1, len(states) // MICRO_STATES)
    picked = states[::stride][:MICRO_STATES]
    reps = {rep: [(dynamics.convert(s, rep, p), p) for s, p in picked]
            for rep in dynamics.REPRESENTATIONS}
    flat = {rep: [(dynamics.make_rhs(rep, p), s.t, dynamics.flat_from_state(s))
                  for s, p in reps[rep]]
            for rep in dynamics.REPRESENTATIONS}
    result = {}
    for rep in dynamics.REPRESENTATIONS:
        result[f"dynamics.rhs_us.{rep}"] = _per_call_us(
            (rhs, (t, y)) for rhs, t, y in flat[rep])
        result[f"dynamics.rk4_step_us.{rep}"] = _per_call_us(
            (dynamics.rk4_step, (rhs, t, y, h)) for rhs, t, y in flat[rep])
    result["dynamics.rkf45_step_us.mode"] = _per_call_us(
        (dynamics.rkf45_step, (rhs, t, y, h)) for rhs, t, y in flat["mode"])
    for rep in ("pinney", "mode"):
        result[f"dynamics.observe_us.{rep}"] = _per_call_us(
            (dynamics.record_observables, sp) for sp in reps[rep])
    result["core.frequency_us"] = _per_call_us(
        (core.frequency, (s.A, s.Adot, p)) for s, p in picked)
    for kernel in ("state_moments", "occupation_numbers", "energies"):
        result[f"core.{kernel}_us"] = _per_call_us(
            (getattr(core, kernel), sp) for sp in picked)
    result["micro.calls"] = len(picked) * MICRO_BATCHES * MICRO_BATCH
    return result


def retained_bytes_per_sample(config) -> float:
    """Heap still held by integrate()'s result, per sample (tracemalloc)."""
    from semiosc.dynamics import integrate

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(config)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(traj.records)

