"""The package names the benchmark harness reads.

perfbench/tracing.py replaces fourteen module globals of semiosc with timing
wrappers for its --trace 1 spans, and times kernels it looks up by name.  A
name that leaves the package breaks that harness outside pytest; this test
makes Tier-1 fail first.
"""

import importlib
import math
import os

from semiosc import cli, diagnostics, dynamics, initial_state, load_scenario

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_perfbench_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    modules = (cli, diagnostics, dynamics)
    before = [dict(vars(module)) for module in modules]
    with tracing.installed(tracing.Tracer()):
        pass
    assert [dict(vars(module)) for module in modules] == before
    config = load_scenario("vacuum-kick")
    metrics = tracing.microbenchmarks(
        [(initial_state(config), config.params)], config.dt)
    assert len(metrics) == 14
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics


def test_trace_counts_are_the_csv_rows(monkeypatch, tmp_path):
    # the dynamics.integrate span's samples (len(traj.records)) and the
    # cli.csv_write span's rows (len(records)) are the rows simulate writes
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as main:
        assert main(["simulate", "free", "-o", str(tmp_path)]) == 0
    spans = {}
    for name, _, _, _, attributes in tracer.spans:
        spans.setdefault(name, []).append(attributes)
    with open(tmp_path / "timeseries.csv", encoding="utf-8") as fh:
        rows = len(fh.read().splitlines()) - 1
    assert rows == 1001
    assert [a["samples"] for a in spans["dynamics.integrate"]] == [rows]
    assert [a["rows"] for a in spans["cli.csv_write"]] == [rows]
