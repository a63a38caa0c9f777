"""On-demand tracking benchmark: speedup, soundness and detection.

Four experiments, one report (``BENCH_adaptive.json``):

1. **Clean-heavy server mix** — the compute-bound dynamic-content
   backend (:data:`repro.apps.webserver.BACKEND_SOURCE`) behind a fleet
   frontend (``backend_policy``: own ingress trusted, taint arrives via
   wire tags), fed mostly-clean wire-tagged requests with occasional
   tainted ones.  Three arms over identical traffic: ``adaptive`` (dual
   build, mode controller on), ``always_on`` (dual build pinned in
   track mode) and ``uninstrumented`` (mode="none" floor): the cycle
   speedup over always-on, with responses and alerts compared.
2. **Taint-heavy mix** — same server, every request tainted; its
   overhead is reported, not gated, to show it degrades to ~always-on
   instead of falling off a cliff.
3. **SPEC kernels** — gzip/gcc/mcf dual-built, run once with safe
   (untainted) input — the whole run should execute in fast mode at
   uninstrumented speed — and once with tainted input (tracked
   throughout, same checksum).
4. **Attack detection** — resilbench's attack mix (overflow, traversal,
   runaway) on an *adaptive* vulnerable server: every attack must be
   quarantined with the same reasons as the always-on run, plus a
   wire-taint traversal against the adaptive backend must raise H2.

The report's ``metrics`` holds the clean-heavy adaptive arm's machine
metrics, switch counts included.  Run and gated as the ``adaptive``
suite of :mod:`repro.harness.suites`, whose gate table holds the
conditions::

    PYTHONPATH=src python -m repro.harness.suites adaptive --quick --gate
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apps.spec import BENCHMARKS
from repro.apps.webserver import make_request, traversal_request
from repro.compiler.instrument import BYTE_LEVEL, UNINSTRUMENTED
from repro.harness.resilbench import attack_mix
from repro.fleet.driver import FleetConfig
from repro.harness.runners import (arm_record, backend_policy, run_spec,
                                   serve_requests, switch_stats)
from repro.runtime.machine import MachineSpec
from repro.taint.bitmap import pack_flags

#: Request stream: (payload, per-byte tainted?) pairs.
Request = Tuple[bytes, bool]


def clean_heavy_mix(clean: int, tainted: int, size_kb: int = 8) -> List[Request]:
    """Mostly-clean traffic with tainted traversal probes interleaved."""
    reqs: List[Request] = [(make_request(size_kb), False)] * clean
    stride = max(1, clean // max(tainted, 1))
    for i in range(tainted):
        reqs.insert((i + 1) * stride + i, (traversal_request(), True))
    return reqs


def taint_heavy_mix(count: int, size_kb: int = 8) -> List[Request]:
    """Every request wire-tainted (worst case for on-demand tracking)."""
    return [(make_request(size_kb), True)] * count


def _run_backend(adaptive: str, requests: Sequence[Request],
                 engine: str) -> Dict:
    """One backend arm over one request stream; returns raw observables.

    The track half runs strict byte granularity (``BYTE_LEVEL``): the
    claim is full-strength tracking when it matters and zero cost when
    quiescent, so it carries the strongest configuration.
    """
    summary, _machine = serve_requests(FleetConfig(
        variant="backend",
        options=(BYTE_LEVEL if adaptive != "uninstrumented"
                 else UNINSTRUMENTED),
        policy_config=backend_policy(),
        sizes=(4, 8),
        engine=engine,
        engine_mode="record",
        adaptive=adaptive if adaptive != "uninstrumented" else "none",
        max_instructions=2_000_000_000,
    ), [(payload, pack_flags([is_tainted] * len(payload)))
        for payload, is_tainted in requests])
    arm = arm_record(summary)
    arm.update(switch_stats(arm["metrics"]) or {})
    return arm


def _public(arm: Dict) -> Dict:
    """An arm record without its responses and metrics snapshot."""
    return {k: v for k, v in arm.items() if k not in ("metrics", "responses")}


def server_experiment(name: str, requests: Sequence[Request],
                      engine: str,
                      expected_alerts: int = None) -> Dict:
    """Run adaptive / always-on / uninstrumented arms over one stream.

    ``expected_alerts`` defaults to the tainted-request count (right for
    the clean-heavy mix, whose tainted requests are traversal probes);
    the taint-heavy mix passes 0 — its tainted requests are benign.
    """
    adaptive = _run_backend("on", requests, engine)
    always_on = _run_backend("track", requests, engine)
    floor = _run_backend("uninstrumented", requests, engine)
    tainted_count = sum(1 for _, t in requests if t)
    if expected_alerts is None:
        expected_alerts = tainted_count
    identical = (adaptive["responses"] == always_on["responses"]
                 and adaptive["alerts"] == always_on["alerts"]
                 and adaptive["served"] == always_on["served"])
    entry = {
        "name": name,
        "engine": engine,
        "requests": len(requests),
        "tainted_requests": tainted_count,
        "adaptive": _public(adaptive),
        "always_on": _public(always_on),
        "uninstrumented": _public(floor),
        "speedup": always_on["cycles"] / adaptive["cycles"],
        "overhead_vs_floor": adaptive["cycles"] / floor["cycles"],
        "identical_to_always_on": identical,
        # Every expected attack must alert; clean traffic must not.
        "attacks_detected": len(adaptive["alerts"]),
        "attacks_expected": expected_alerts,
    }
    entry["_metrics"] = adaptive["metrics"]
    return entry


def spec_experiment(benchmarks: Sequence[str], scale: str,
                    engine: str) -> List[Dict]:
    """Dual-built SPEC kernels, safe vs tainted input, vs always-on."""
    rows = []
    for name in benchmarks:
        bench = BENCHMARKS[name]
        for safe in (True, False):
            on = run_spec(bench, BYTE_LEVEL, scale, safe_input=safe,
                          spec=MachineSpec(engine=engine, adaptive="on"))
            track = run_spec(bench, BYTE_LEVEL, scale, safe_input=safe,
                             spec=MachineSpec(engine=engine,
                                              adaptive="track"))
            rows.append({
                "benchmark": name,
                "safe_input": safe,
                "adaptive_cycles": on.cycles,
                "always_on_cycles": track.cycles,
                "speedup": track.cycles / on.cycles,
                "checksum_match": on.checksum == track.checksum,
            })
    return rows


def wire_taint_detection(engine: str) -> Dict:
    """A traversal whose taint arrives purely via wire tags must alert.

    Control arm: the identical bytes with their tags stripped sail
    through (the backend trusts its own ingress), proving the detection
    is carried by the transported tags, not by the byte pattern.
    """
    def probe(tainted: bool) -> List:
        payload = traversal_request("/../etc/secret")
        summary, _machine = serve_requests(FleetConfig(
            variant="backend", options=BYTE_LEVEL,
            policy_config=backend_policy(),
            sizes=(4,), engine=engine, engine_mode="record", adaptive="on",
            max_instructions=100_000_000,
        ), [(payload, pack_flags([tainted] * len(payload)))])
        return [a["policy_id"] for a in summary["alerts"]]

    armed, control = probe(True), probe(False)
    return {
        "engine": engine,
        "tagged_alerts": armed,
        "untagged_alerts": control,
        "detected": armed == ["H2"] and control == [],
    }


def run_suite(quick: bool) -> Dict:
    """All four experiments; returns the report body."""
    clean, tainted = (20, 1) if quick else (60, 3)
    engine, scale = "predecoded", "test"
    print("adaptivebench: clean-heavy server mix", flush=True)
    clean_entry = server_experiment(
        "clean_heavy", clean_heavy_mix(clean, tainted), engine)
    metrics = clean_entry.pop("_metrics")
    print(f"  speedup {clean_entry['speedup']:.2f}x over always-on, "
          f"identical={clean_entry['identical_to_always_on']}, "
          f"alerts {clean_entry['attacks_detected']}"
          f"/{clean_entry['attacks_expected']}", flush=True)

    print("adaptivebench: taint-heavy server mix", flush=True)
    heavy_entry = server_experiment(
        "taint_heavy", taint_heavy_mix(6 if quick else 20), engine,
        expected_alerts=0)
    heavy_entry.pop("_metrics")
    print(f"  overhead vs floor {heavy_entry['overhead_vs_floor']:.2f}x "
          f"(always-on {heavy_entry['always_on']['cycles'] / heavy_entry['uninstrumented']['cycles']:.2f}x)",
          flush=True)

    print("adaptivebench: SPEC kernels", flush=True)
    spec_rows = spec_experiment(
        ["gzip"] if quick else ["gzip", "gcc", "mcf"], scale, engine)
    for row in spec_rows:
        print(f"  {row['benchmark']:6s} safe={row['safe_input']!s:5s} "
              f"speedup {row['speedup']:.2f}x "
              f"checksum_match={row['checksum_match']}", flush=True)

    print("adaptivebench: attack detection (adaptive resil server)", flush=True)
    mix = attack_mix(engine=engine, adaptive="on")
    wire = wire_taint_detection(engine)
    print(f"  attack mix exact={mix['exact']}, "
          f"wire-taint traversal detected={wire['detected']}", flush=True)

    return {
        "clean_heavy": clean_entry,
        "taint_heavy": heavy_entry,
        "spec": spec_rows,
        "detection": {"attack_mix": mix, "wire_taint": wire},
        "metrics": metrics,
    }
