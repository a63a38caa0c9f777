"""BENCHMARK.json, the metric catalogue and what the runner emits agree."""

import math
import re

import pytest

from bench import metrics
from bench.run import tally
from bench.trace import Tracer
from bench.workloads import (WORKLOADS, Round, ServeAutoscale, SpecInt,
                             StoreSpeculate, WebRecover)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    spec = metrics.declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"][0] == "python3"
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_metric_is_catalogued_and_vice_versa():
    declared = set(metrics.units("end_to_end")) | set(
        metrics.units("per_layer"))
    assert declared == set(metrics.CATALOGUE)
    assert {clock for clock, _ in metrics.CATALOGUE.values()} == {
        metrics.HOST, metrics.SIM}


def test_workloads_are_the_declared_ones():
    assert list(WORKLOADS) == [w["name"]
                               for w in metrics.declared()["workloads"]]


SMALL = {
    "specint": lambda: SpecInt(1, kernels=["mcf"], scale="test"),
    "web-recover": lambda: WebRecover(1, batch=13),
    "store-speculate": lambda: StoreSpeculate(1, mix=5),
    "serve-autoscale": lambda: ServeAutoscale(1, requests=60),
}


@pytest.fixture(scope="module")
def small_runs():
    """One traced round of a small version of every workload."""
    runs = {}
    for name, make in SMALL.items():
        tracer = Tracer()
        tracer.install()
        try:
            tracer.mark("setup")
            workload = make()
            reference = workload.reference()
            tracer.mark("rounds")
            first = workload.run_round()
            tracer.mark("end")
        finally:
            tracer.uninstall()
        runs[name] = (tracer, workload, reference, first)
    return runs


@pytest.mark.parametrize("name", list(SMALL))
def test_runner_emits_exactly_the_declared_metrics(small_runs, name):
    tracer, _workload, reference, first = small_runs[name]
    assert tally([reference], [first]) == (
        reference[0] + first.attempted, 0)
    assert set(first.layers) <= set(metrics.units("per_layer"))
    layers = metrics.per_layer(
        tracer.window("setup", "rounds"), tracer.window("rounds", "end"), 1,
        first.layers, traced_rate=1.0, untraced_rate=1.0)
    e2e = metrics.end_to_end(1.0, float(first.ops), 10.0, first.sim)
    for emitted, kind in ((layers, "per_layer"), (e2e, "end_to_end")):
        assert list(emitted) == list(metrics.units(kind))
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in emitted.values()), emitted
    assert all(v > 0 for v in e2e.values()), e2e


def test_every_round_derived_metric_has_a_source(small_runs):
    # Metrics that per_layer takes from the workload read a sentinel
    # here; each of them must be reported by some workload's rounds.
    tracer = small_runs["web-recover"][0]
    window = tracer.window("rounds", "end")
    sentinel = {name: -1.5 for name in metrics.units("per_layer")}
    from_rounds = {name for name, value in metrics.per_layer(
        window, window, 1, sentinel, 1.0, 1.0).items() if value == -1.5}
    reported = set()
    for _tracer, workload, _reference, first in small_runs.values():
        reported |= set(first.layers)
        if hasattr(workload, "host_layers"):
            reported |= set(workload.host_layers([1.0]))
    assert from_rounds == reported


def test_a_round_that_does_not_repeat_fails_whole():
    first = Round(ops=5, attempted=5, failed=0, sim={"x": 1.0}, layers={})
    again = Round(ops=5, attempted=5, failed=0, sim={"x": 1.0}, layers={})
    drifted = Round(ops=5, attempted=5, failed=1, sim={"x": 2.0}, layers={})
    assert tally([(2, 0)], [first, again]) == (12, 0)
    assert tally([(2, 1)], [first, drifted]) == (12, 6)
