"""Metric catalogue and the per-layer breakdown of a traced run.

``BENCHMARK.json`` declares each metric's name, unit, direction and
bound.  :data:`CATALOGUE` adds the clock the metric is read from and
what it means:

* ``host`` — measured on the machine running the benchmark (wall time,
  memory); noisy, compared by medians over runs.
* ``sim`` — simulated cycles, or counts of simulated work; exact for a
  given seed, on any host.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from bench.trace import Window

HOST, SIM = "host", "sim"
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Natives whose inclusive host time is reported one by one.
NATIVES = ("accept", "recv", "send", "open", "read", "close", "memset",
           "system", "taint_region")

CATALOGUE: Dict[str, tuple] = {
    # -- end to end ------------------------------------------------------
    "setup_s": (HOST, "median of 3 cold set-ups, each from process start "
                "(before import repro) until the first round can start, at "
                "the reference host speed"),
    "host_ops_per_s": (HOST, "median over rounds of work units per second "
                       "at the reference host speed (guest instructions "
                       "for specint, requests otherwise)"),
    "peak_rss_mb": (HOST, "peak resident memory of the benchmark process"),
    "sim_cycles_per_op": (SIM, "simulated cycles per operation: per kernel "
                          "run for specint, per request otherwise (worker "
                          "service cycles for serve-autoscale)"),
    "sim_overhead": (SIM, "simulated cycles of the protected configuration "
                     "over the uninstrumented one on the same inputs "
                     "(specint: geomean Fig. 7 slowdown, paper 2.81x)"),
    # -- tracing itself --------------------------------------------------
    "trace.wall_s": (HOST, "wall time of the traced rounds"),
    "trace.spans": (SIM, "layer spans recorded per traced round"),
    "trace.coverage": (HOST, "layer self time over traced round wall time"),
    "trace.overhead_frac": (HOST, "untraced over traced host_ops_per_s, "
                            "minus 1"),
    # -- set-up ----------------------------------------------------------
    "setup.wall_s": (HOST, "wall time of the traced set-up and reference"),
    "setup.coverage": (HOST, "layer self time over traced set-up time"),
    "setup.predecode_frac": (HOST, "share of set-up in the predecoder"),
    "setup.run_frac": (HOST, "share of set-up executing guests (machine, "
                       "cpu, natives, taint, policy, resil layers)"),
    "compiler.host_s": (HOST, "compile_program time during set-up"),
    "compiler.parse_s": (HOST, "parser time during set-up"),
    "compiler.codegen_s": (HOST, "lower_function time during set-up"),
    "compiler.instrument_s": (HOST, "SHIFT instrumentation time during "
                              "set-up"),
    "compiler.static_instructions": (SIM, "instructions of the programs "
                                     "compiled during set-up"),
    # -- rounds: host shares and per-round counts ------------------------
    "predecode.frac": (HOST, "share of round time building micro-ops"),
    "predecode.uops": (SIM, "micro-ops built per round"),
    "machine.build_frac": (HOST, "share of round time in Machine "
                           "construction and run glue"),
    "machine.builds": (SIM, "machines built per round"),
    "cpu.self_frac": (HOST, "share of round time in the execute loop"),
    "cpu.host_mips": (HOST, "guest instructions per second of execute-loop "
                      "self time"),
    "cpu.tag_store_calls": (SIM, "guest stores into tag space per round"),
    "natives.calls": (SIM, "native calls per round"),
    "natives.self_frac": (HOST, "share of round time in native dispatch "
                          "and handlers"),
    **{f"natives.{n}.frac": (HOST, f"share of round time inside {n}(), "
                             "children included") for n in NATIVES},
    "taint.range_calls": (SIM, "TaintMap range operations per round"),
    "taint.range_frac": (HOST, "share of round time in TaintMap range ops"),
    "policy.checks": (SIM, "policy use-point checks and fault hooks per "
                      "round"),
    "policy.frac": (HOST, "share of round time in the policy engine"),
    "resil.captures": (SIM, "checkpoint captures per round"),
    "resil.capture_frac": (HOST, "share of round time capturing "
                           "checkpoints"),
    "resil.capture_tail_ratio": (HOST, "capture time at the highest "
                                 "percentile with 10 samples beyond it, "
                                 "over the median"),
    "resil.restores": (SIM, "checkpoint restores per round"),
    "resil.restore_frac": (HOST, "share of round time restoring "
                           "checkpoints"),
    "adaptive.boundaries": (SIM, "adaptive mode-switch checks per round"),
    "adaptive.frac": (HOST, "share of round time in the adaptive "
                      "controller"),
    "spec.frac": (HOST, "share of round time in the speculation "
                  "controller"),
    "spec.watch_builds": (SIM, "taint watches built per round"),
    "spec.watch_frac": (HOST, "share of round time building taint "
                        "watches"),
    "spec.host_speedup": (HOST, "always-on arm host time over the median "
                          "speculate round"),
    "frontend.submits": (SIM, "frontend submissions per round"),
    "frontend.submit_frac": (HOST, "share of round time routing "
                             "submissions"),
    "serve.loop_frac": (HOST, "share of round time in the ServeSim event "
                        "loop itself"),
    "serve.autoscaler_frac": (HOST, "share of round time in the "
                              "autoscaler"),
    "serve.service_model_frac": (HOST, "share of round time looking up "
                                 "service budgets"),
    # -- rounds: simulated, per round ------------------------------------
    "cpu.instructions": (SIM, "guest instructions per round"),
    "cpu.cycles": (SIM, "simulated cycles per round"),
    "cpu.compute_cycles": (SIM, "issue and stall cycles per round"),
    "cpu.io_cycles": (SIM, "device and native cycles per round"),
    "cpu.stall_cycles": (SIM, "cache and forwarding stall cycles per round"),
    "cpu.branch_penalty_cycles": (SIM, "taken-branch redirect cycles per "
                                  "round"),
    "cpu.ipc": (SIM, "guest instructions per simulated cycle"),
    "cache.l1.miss_rate": (SIM, "L1 misses over accesses"),
    "cache.l2.miss_rate": (SIM, "L2 misses over accesses"),
    "cache.l3.misses": (SIM, "L3 misses per round"),
    "shift.instrumentation_cycles": (SIM, "cycles of all instrumentation "
                                     "roles per round (Fig. 9)"),
    **{f"shift.role_cycles.{r}": (SIM, f"cycles of the {r} role per round")
       for r in ("natgen", "relax", "tag_compute", "tag_mem", "taint_set")},
    "taint.live_bytes": (SIM, "tainted bytes left when each machine ends"),
    "alerts.total": (SIM, "security alerts per round"),
    "resil.pages_captured": (SIM, "checkpoint pages captured per round"),
    "resil.bytes_captured": (SIM, "checkpoint bytes captured per round"),
    "resil.recoveries": (SIM, "rollback recoveries per round"),
    "adaptive.switches_to_fast": (SIM, "switches to the fast copy per "
                                  "round"),
    "adaptive.switches_to_track": (SIM, "switches to the tracked copy per "
                                   "round"),
    "spec.epochs": (SIM, "speculation epochs per round"),
    "spec.commits": (SIM, "epochs committed per round"),
    "spec.rollbacks": (SIM, "epochs rolled back and replayed per round"),
    "spec.useful_frac": (SIM, "committed over committed plus wasted "
                         "speculative instructions"),
    "spec.deferred_bytes": (SIM, "send bytes held until commit per round"),
    "spec.sim_speedup": (SIM, "always-on over speculate cycles (no paper "
                         "reference, unvalidated)"),
    "frontend.spilled": (SIM, "requests spilled past their first-choice "
                         "worker, summed over the 1.1x streams"),
    "frontend.dropped": (SIM, "requests dropped by the frontend, summed "
                         "over the 1.1x streams"),
    "frontend.workers_ever": (SIM, "workers that ever joined a fleet, "
                              "summed over the 1.1x streams"),
    "serve.latency_p50": (SIM, "median arrival-to-response latency over "
                          "the 1.1x streams"),
    "serve.latency_p99": (SIM, "p99 arrival-to-response latency over the "
                          "1.1x streams (about 150 samples beyond it)"),
    "serve.queue_wait_p50": (SIM, "median queue wait over the 1.1x "
                             "streams"),
    "serve.queue_wait_p99": (SIM, "p99 queue wait over the 1.1x streams"),
    "serve.service_p50": (SIM, "median service time over the 1.1x streams"),
    "serve.peak_workers": (SIM, "most routable workers in any 1.1x stream"),
    "serve.scale_events": (SIM, "autoscaler actions, summed over the 1.1x "
                           "streams"),
    "serve.utilization_mean": (SIM, "mean worker busy fraction over the "
                               "1.1x streams"),
    "serve.max_rate": (SIM, "highest swept rate with p99 within 25 mean "
                       "services and nothing dropped"),
}


def declared() -> Dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def units(kind: str) -> Dict[str, str]:
    """Name -> unit for the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in declared()[kind]}


def _share(seconds: float, window: Window) -> float:
    return seconds / window.seconds if window.seconds else 0.0


def tail_ratio(durations: List[float]) -> float:
    """Highest percentile with >= 10 samples beyond it, over the median."""
    if len(durations) < 11:
        return 0.0
    ordered = sorted(durations)
    tail = ordered[len(ordered) - 11]
    return tail / statistics.median(ordered)


def per_layer(setup: Window, rounds: Window, n_rounds: int,
              round_layers: Dict[str, float], traced_rate: float,
              untraced_rate: float) -> Dict[str, float]:
    """Every ``per_layer`` metric of one traced run.

    ``setup`` and ``rounds`` are the traced set-up (plus reference) and
    the traced rounds; ``round_layers`` the metrics the workload reports
    for its first round.  Host shares are of the rounds' wall time;
    counts are per round.  A metric neither source has reads 0.
    """
    w = rounds

    def per_round(calls: float) -> float:
        return calls / n_rounds

    run_layers = ("runtime.machine", "cpu", "runtime.guest_os",
                  "taint.bitmap", "taint.engine", "resil")
    cpu_s = w.layer_self("cpu")
    instructions = round_layers.get("cpu.instructions", 0)
    out = {
        "trace.wall_s": w.seconds,
        "trace.spans": per_round(w.spans),
        "trace.coverage": _share(w.covered_s, w),
        "trace.overhead_frac": untraced_rate / traced_rate - 1,
        "setup.wall_s": setup.seconds,
        "setup.coverage": _share(setup.covered_s, setup),
        "setup.predecode_frac": _share(setup.layer_self("cpu.predecode"),
                                       setup),
        "setup.run_frac": _share(sum(setup.layer_self(layer)
                                     for layer in run_layers), setup),
        "compiler.host_s": setup.layer_self("compiler"),
        "compiler.parse_s": setup.layer_self("compiler", "parse"),
        "compiler.codegen_s": setup.layer_self("compiler", "codegen"),
        "compiler.instrument_s": setup.layer_self("compiler", "instrument"),
        "compiler.static_instructions": setup.counts.get(
            "compiler.static_instructions", 0),
        "predecode.frac": _share(w.layer_self("cpu.predecode"), w),
        "predecode.uops": per_round(w.counts.get("cpu.predecode.uops", 0)),
        "machine.build_frac": _share(w.layer_self("runtime.machine"), w),
        "machine.builds": per_round(w.layer_calls("runtime.machine",
                                                  "build")),
        "cpu.self_frac": _share(cpu_s, w),
        "cpu.host_mips": (instructions * n_rounds / cpu_s / 1e6
                          if cpu_s else 0.0),
        "cpu.tag_store_calls": per_round(w.counts.get("cpu.tag_store", 0)),
        "natives.calls": per_round(w.layer_calls("runtime.guest_os")),
        "natives.self_frac": _share(w.layer_self("runtime.guest_os"), w),
        "taint.range_calls": per_round(w.layer_calls("taint.bitmap")),
        "taint.range_frac": _share(w.layer_self("taint.bitmap"), w),
        "policy.checks": per_round(w.layer_calls("taint.engine")),
        "policy.frac": _share(w.layer_self("taint.engine"), w),
        "resil.captures": per_round(w.layer_calls("resil", "capture")),
        "resil.capture_frac": _share(w.layer_self("resil", "capture")
                                     + w.layer_self("resil", "checkpoint"),
                                     w),
        "resil.capture_tail_ratio": tail_ratio(
            w.durations[("resil", "capture")]),
        "resil.restores": per_round(w.layer_calls("resil", "restore")),
        "resil.restore_frac": _share(w.layer_self("resil", "restore"), w),
        "adaptive.boundaries": per_round(w.layer_calls("adaptive")),
        "adaptive.frac": _share(w.layer_self("adaptive"), w),
        "spec.frac": _share(w.layer_self("spec", ""), w),
        "spec.watch_builds": per_round(w.layer_calls("spec", "watch")),
        "spec.watch_frac": _share(w.layer_self("spec", "watch"), w),
        "frontend.submits": per_round(w.layer_calls("fleet.frontend",
                                                    "submit")),
        "frontend.submit_frac": _share(w.layer_self("fleet.frontend",
                                                    "submit"), w),
        "serve.loop_frac": _share(w.layer_self("serve", "loop"), w),
        "serve.autoscaler_frac": _share(w.layer_self("serve", "autoscaler"),
                                        w),
        "serve.service_model_frac": _share(
            w.layer_self("serve", "service_model"), w),
    }
    for name in NATIVES:
        out[f"natives.{name}.frac"] = _share(
            sum(w.durations[("runtime.guest_os", name)]), w)
    return {name: out[name] if name in out else round_layers.get(name, 0)
            for name in units("per_layer")}


def end_to_end(setup_s: float, host_ops_per_s: float, peak_rss_mb: float,
               sim: Dict[str, float]) -> Dict[str, float]:
    """Every ``end_to_end`` metric of one untraced run."""
    values = {"setup_s": setup_s, "host_ops_per_s": host_ops_per_s,
              "peak_rss_mb": peak_rss_mb, **sim}
    return {name: values[name] for name in units("end_to_end")}
