"""Interpreter benchmark: predecoded engine vs the reference step loop.

Runs the Figure-7 SPEC kernels and the webserver workload under both
execution engines, cross-validates that they produce bit-identical
results (checksums and performance counters), and emits
``BENCH_interp.json`` with host wall time, simulated instructions per
second, and the per-workload speedup with its quartiles over
interleaved pairs of runs — so every future change can track the
interpreter-performance trajectory.

The JSON is keyed by workload; ``geomean_speedup_spec`` is the headline
number (the geometric-mean speedup over the SPEC kernels).  Run and
gated as the ``interp`` suite of :mod:`repro.harness.suites`, whose
gate table holds the condition::

    PYTHONPATH=src python -m repro.harness.suites interp --gate
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.apps.spec import BENCHMARKS
from repro.apps.webserver import make_request
from repro.fleet.driver import FleetConfig, build_worker
from repro.harness.formatting import geomean, ratio_quartiles
from repro.harness.runners import PERF_OPTIONS, paired_times, spec_machine
from repro.runtime.machine import MachineSpec

ENGINES = ("reference", "predecoded")

#: Kernels used by --quick (small but representative: tight loop vs
#: pointer chasing) and by the full run (all Figure-7 kernels).
QUICK_SPEC = ("gzip", "mcf")
FULL_SPEC = tuple(BENCHMARKS)

#: Instrumentation used for the measurement: byte-granularity taint
#: with the permissive pointer policy, the paper's headline config.
BENCH_OPTIONS = PERF_OPTIONS["byte"]

#: SPEC input scale, and timed pairs of runs (one per engine) per workload.
SCALE = "test"
PAIRS = 5

Builder = Callable[[str], object]
Runner = Callable[[object], int]


def spec_workload(name: str, scale: str) -> Tuple[Builder, Runner]:
    """(build, run) pair for one SPEC kernel."""
    def build(engine: str):
        return spec_machine(BENCHMARKS[name], BENCH_OPTIONS, scale,
                            spec=MachineSpec(engine=engine))

    def run(machine) -> int:
        machine.run()
        return machine.read_global("result")

    return build, run


def web_workload(requests: int, file_kb: int = 4) -> Tuple[Builder, Runner]:
    """(build, run) pair for the webserver workload."""
    def build(engine: str):
        machine = build_worker(FleetConfig(
            options=BENCH_OPTIONS, sizes=(file_kb,), engine=engine,
            engine_mode="raise"))
        for _ in range(requests):
            machine.net.add_request(make_request(file_kb))
        return machine

    def run(machine) -> int:
        return machine.run(max_instructions=1_000_000_000)

    return build, run


def measure(build: Builder, run: Runner, engine: str) -> Dict:
    """Wall time, result and counters of one run on a fresh machine."""
    machine = build(engine)
    cpu = machine.cpu
    cpu._ensure_uops()
    if engine == "predecoded":
        cpu._ensure_fused()
    start = time.perf_counter()
    value = run(machine)
    return {
        "wall_s": time.perf_counter() - start,
        "instructions": machine.counters.instructions,
        "result": value,
        "snapshot": machine.counters.snapshot(),
    }


def bench_workload(name: str, build: Builder, run: Runner,
                   pairs: int) -> Dict:
    """Time both engines in interleaved pairs and cross-validate.

    :func:`~repro.harness.runners.paired_times` alternates which engine
    runs first, so drift in host speed falls on both sides.  The
    speedup is the median of the per-pair wall-time ratios, with its
    quartiles.  Predecode tables fill in on first execution, so an
    untimed predecoded run first warms the program's block sources and
    the process-wide code-object cache.
    """
    measure(build, run, "predecoded")
    last: Dict[str, Dict] = {}

    def timed(engine: str) -> Callable[[], float]:
        def arm() -> float:
            last[engine] = measure(build, run, engine)
            return last[engine]["wall_s"]
        return arm

    walls = paired_times({engine: timed(engine) for engine in ENGINES}, pairs)
    ref, pre = last["reference"], last["predecoded"]
    if ref["result"] != pre["result"]:
        raise AssertionError(
            f"{name}: engines diverged on result "
            f"({ref['result']} != {pre['result']})")
    if ref["snapshot"] != pre["snapshot"]:
        raise AssertionError(
            f"{name}: engines diverged on counters "
            f"({ref['snapshot']} != {pre['snapshot']})")
    q1, speedup, q3 = ratio_quartiles(walls["reference"],
                                      walls["predecoded"])
    engines = {}
    for engine, times in walls.items():
        wall = statistics.median(times)
        engines[engine] = {"wall_s": round(wall, 6),
                           "ips": round(ref["instructions"] / wall, 1)}
    return {
        "instructions": ref["instructions"],
        "engines": engines,
        "speedup": speedup,
        "speedup_quartiles": [q1, q3],
    }


def run_suite(quick: bool) -> Dict:
    """Run the benchmark matrix; returns the report body."""
    spec_names = QUICK_SPEC if quick else FULL_SPEC
    requests = 20 if quick else 50
    workloads: Dict[str, Dict] = {}
    for name in spec_names:
        build, run = spec_workload(name, SCALE)
        workloads[f"spec:{name}"] = bench_workload(name, build, run, PAIRS)
        print(f"  spec:{name:8s} {workloads[f'spec:{name}']['speedup']:.2f}x",
              flush=True)
    build, run = web_workload(requests)
    workloads["webserver"] = bench_workload("webserver", build, run, PAIRS)
    print(f"  webserver     {workloads['webserver']['speedup']:.2f}x",
          flush=True)
    spec_speedups = [w["speedup"] for k, w in workloads.items()
                     if k.startswith("spec:")]
    report = {
        "workloads": workloads,
        "geomean_speedup_spec": round(geomean(spec_speedups), 3),
        "geomean_speedup_all": round(
            geomean([w["speedup"] for w in workloads.values()]), 3),
    }
    print(f"geomean speedup (spec): {report['geomean_speedup_spec']:.2f}x")
    print(f"geomean speedup (all):  {report['geomean_speedup_all']:.2f}x")
    return report
