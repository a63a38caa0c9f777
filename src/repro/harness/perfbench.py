"""Interpreter benchmark: predecoded engine vs the reference step loop.

Runs the Figure-7 SPEC kernels and the webserver workload under both
execution engines, cross-validates that they produce bit-identical
results (checksums and performance counters), and emits
``BENCH_interp.json`` with host wall time, simulated instructions per
second, and the per-workload speedup — so every future change can track
the interpreter-performance trajectory::

    PYTHONPATH=src python -m repro.harness.perfbench --quick

The JSON is keyed by workload; ``geomean_speedup_spec`` is the headline
number (the geometric-mean speedup over the SPEC kernels).  With
``--check-faster`` the process exits non-zero when the predecoded
engine is slower than the reference loop, which is the only condition
the CI benchmark job gates on (absolute throughput varies with runner
hardware; the ratio does not).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.apps.spec import BENCHMARKS
from repro.apps.webserver import make_request, make_site
from repro.core.shift import build_machine
from repro.harness.runners import (
    PERF_OPTIONS,
    compiled_spec,
    compiled_webserver,
    spec_policy,
    webserver_policy,
)

ENGINES = ("reference", "predecoded")

#: Kernels used by --quick (small but representative: tight loop vs
#: pointer chasing) and by the full run (all Figure-7 kernels).
QUICK_SPEC = ("gzip", "mcf")
FULL_SPEC = tuple(BENCHMARKS)

#: Instrumentation used for the measurement: byte-granularity taint
#: with the permissive pointer policy, the paper's headline config.
BENCH_OPTIONS = PERF_OPTIONS["byte"]

Builder = Callable[[str], object]
Runner = Callable[[object], int]


def spec_workload(name: str, scale: str) -> Tuple[Builder, Runner]:
    """(build, run) pair for one SPEC kernel."""
    bench = BENCHMARKS[name]
    compiled = compiled_spec(bench, BENCH_OPTIONS, scale)
    data = bench.make_input(scale)

    def build(engine: str):
        return build_machine(
            compiled,
            policy_config=spec_policy(False),
            files={"/data": data},
            engine=engine,
        )

    def run(machine) -> int:
        machine.run()
        return machine.read_global("result")

    return build, run


def web_workload(requests: int, file_kb: int = 4) -> Tuple[Builder, Runner]:
    """(build, run) pair for the webserver workload."""
    compiled = compiled_webserver(BENCH_OPTIONS)
    site = make_site((file_kb,))

    def build(engine: str):
        machine = build_machine(
            compiled,
            policy_config=webserver_policy(),
            files=dict(site),
            engine=engine,
        )
        for _ in range(requests):
            machine.net.add_request(make_request(file_kb))
        return machine

    def run(machine) -> int:
        return machine.run(max_instructions=1_000_000_000)

    return build, run


def measure(build: Builder, run: Runner, engine: str, repeat: int) -> Dict:
    """Best-of-``repeat`` wall time for one workload under one engine.

    Each repetition uses a fresh machine.  Predecode tables fill in on
    first execution, so the first repetition also pays code generation;
    later ones find the program's block sources and the process-wide
    code-object cache warm, so best-of reflects steady state.
    """
    best = math.inf
    value = counters = None
    for _ in range(repeat):
        machine = build(engine)
        cpu = machine.cpu
        cpu._ensure_uops()
        if engine == "predecoded":
            cpu._ensure_fused()
        start = time.perf_counter()
        value = run(machine)
        wall = time.perf_counter() - start
        best = min(best, wall)
        counters = machine.counters
    return {
        "wall_s": best,
        "instructions": counters.instructions,
        "ips": counters.instructions / best if best else 0.0,
        "result": value,
        "snapshot": counters.snapshot(),
    }


def bench_workload(name: str, build: Builder, run: Runner,
                   repeat: int) -> Dict:
    """Measure one workload under both engines and cross-validate."""
    engines = {e: measure(build, run, e, repeat) for e in ENGINES}
    ref, pre = engines["reference"], engines["predecoded"]
    if ref["result"] != pre["result"]:
        raise AssertionError(
            f"{name}: engines diverged on result "
            f"({ref['result']} != {pre['result']})")
    if ref["snapshot"] != pre["snapshot"]:
        raise AssertionError(
            f"{name}: engines diverged on counters "
            f"({ref['snapshot']} != {pre['snapshot']})")
    entry = {
        "instructions": ref["instructions"],
        "engines": {
            e: {"wall_s": round(r["wall_s"], 6), "ips": round(r["ips"], 1)}
            for e, r in engines.items()
        },
        "speedup": pre["ips"] / ref["ips"] if ref["ips"] else 0.0,
    }
    return entry


def geomean(values: List[float]) -> float:
    """Geometric mean (0.0 for an empty list)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_suite(quick: bool, scale: str, repeat: int) -> Dict:
    """Run the full benchmark matrix; returns the report dict."""
    spec_names = QUICK_SPEC if quick else FULL_SPEC
    requests = 20 if quick else 50
    workloads: Dict[str, Dict] = {}
    for name in spec_names:
        build, run = spec_workload(name, scale)
        workloads[f"spec:{name}"] = bench_workload(name, build, run, repeat)
        print(f"  spec:{name:8s} {workloads[f'spec:{name}']['speedup']:.2f}x",
              flush=True)
    build, run = web_workload(requests)
    workloads["webserver"] = bench_workload("webserver", build, run, repeat)
    print(f"  webserver     {workloads['webserver']['speedup']:.2f}x",
          flush=True)
    spec_speedups = [w["speedup"] for k, w in workloads.items()
                     if k.startswith("spec:")]
    return {
        "config": {
            "options": BENCH_OPTIONS.label,
            "scale": scale,
            "repeat": repeat,
            "quick": quick,
            "python": sys.version.split()[0],
        },
        "workloads": workloads,
        "geomean_speedup_spec": round(geomean(spec_speedups), 3),
        "geomean_speedup_all": round(
            geomean([w["speedup"] for w in workloads.values()]), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small kernel subset and fewer requests")
    parser.add_argument("--scale", default="test",
                        help="SPEC input scale (default: test)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per engine; best-of is reported")
    parser.add_argument("--output", default="BENCH_interp.json",
                        help="report path (default: BENCH_interp.json)")
    parser.add_argument("--check-faster", action="store_true",
                        help="exit 1 if predecoded is slower than reference")
    args = parser.parse_args(argv)

    print(f"perfbench: engines={ENGINES} scale={args.scale} "
          f"repeat={args.repeat} quick={args.quick}", flush=True)
    report = run_suite(args.quick, args.scale, args.repeat)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"geomean speedup (spec): {report['geomean_speedup_spec']:.2f}x")
    print(f"geomean speedup (all):  {report['geomean_speedup_all']:.2f}x")
    print(f"wrote {args.output}")
    if args.check_faster and report["geomean_speedup_all"] < 1.0:
        print("FAIL: predecoded engine is slower than the reference loop",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
