"""The metric catalogue and the collectors that emit it.

Every metric name any collector emits is declared once in
:data:`CATALOGUE`, with its unit, how worker snapshots fold into a
fleet view, and what it means.  The collectors return plain
``{name: value}`` dicts:

* :func:`collect_machine` — one ``Machine``'s perf counters, cache
  statistics, taint population, alerts by policy, per-role
  instrumentation cycles and, when present, adaptive, speculation,
  checkpoint, thread and trace state (``machine.metrics()``);
* :func:`repro.fleet.observe.merge_worker_metrics` and
  :func:`repro.fleet.observe.frontend_metrics` — a fleet's folded
  worker snapshots plus ``fleet.*``, and a live frontend's routing
  state;
* ``ServeResult.metrics()`` — ``serve.*`` plus the frontend's.

:func:`render` prints any of them with units.
"""

from __future__ import annotations

from typing import Dict, List, Union

Number = Union[int, float]

#: Folds: worker snapshots add up, or take the largest value (flags,
#: configuration, peaks).  A ``(numerator, denominator)`` fold is
#: recomputed from those two summed names, and ``None`` marks a name
#: that no worker snapshot holds.
SUM, MAX = "sum", "max"

_LEVELS = ("l1", "l2", "l3")

#: name -> (unit, fold, help).  A ``prefix.*`` row declares every name
#: under ``prefix.``; no name may match two rows.
CATALOGUE: Dict[str, tuple] = {
    # -- one machine: collect_machine ------------------------------------
    "cpu.instructions": ("instr", SUM, "retired instructions"),
    "cpu.cycles": ("cycles", SUM, "total simulated cycles"),
    "cpu.issue_cycles": ("cycles", SUM, "issue-group cycles"),
    "cpu.stall_cycles": ("cycles", SUM, "cache and forwarding stalls"),
    "cpu.branch_penalty_cycles": ("cycles", SUM, "taken-branch redirects"),
    "cpu.io_cycles": ("cycles", SUM, "device and syscall time"),
    "cpu.loads": ("count", SUM, "dynamic loads"),
    "cpu.stores": ("count", SUM, "dynamic stores"),
    "cpu.branches_taken": ("count", SUM, "taken branches"),
    "shift.instrumentation_cycles": ("cycles", SUM, "cycles of all "
                                     "instrumentation roles"),
    "shift.role_cycles.*": ("cycles", SUM, "cycles of one "
                            "instrumentation role (Fig. 9)"),
    **{f"cache.{lvl}.accesses": ("count", SUM, f"{lvl.upper()} accesses")
       for lvl in _LEVELS},
    **{f"cache.{lvl}.misses": ("count", SUM, f"{lvl.upper()} misses")
       for lvl in _LEVELS},
    **{f"cache.{lvl}.miss_rate": ("frac", (f"cache.{lvl}.misses",
                                           f"cache.{lvl}.accesses"),
                                  f"{lvl.upper()} misses over accesses")
       for lvl in _LEVELS},
    "mem.pages_touched": ("pages", SUM, "sparse pages allocated"),
    "taint.bitmap_population": ("granules", SUM, "granules marked "
                                "tainted"),
    "taint.live_bytes": ("bytes", SUM, "tainted bytes"),
    "taint.granularity": ("bytes", MAX, "bytes per taint tag"),
    "adaptive.mode": ("flag", MAX, "1 while the tracked copy runs, 0 in "
                      "the fast copy"),
    "adaptive.switches_to_fast": ("count", SUM, "track -> fast switches"),
    "adaptive.switches_to_track": ("count", SUM, "fast -> track switches"),
    "adaptive.spec.epochs": ("count", SUM, "speculation epochs entered"),
    "adaptive.spec.commits": ("count", SUM, "epochs committed"),
    "adaptive.spec.rollbacks": ("count", SUM, "epochs rolled back and "
                                "replayed in track"),
    "adaptive.spec.committed_instructions": ("instr", SUM, "fast-path "
                                             "instructions retired under "
                                             "committed epochs"),
    "adaptive.spec.wasted_instructions": ("instr", SUM, "speculative "
                                          "instructions discarded by "
                                          "rollbacks"),
    "adaptive.spec.deferred_sends": ("count", SUM, "network sends held "
                                     "until commit"),
    "adaptive.spec.deferred_bytes": ("bytes", SUM, "send bytes held until "
                                     "commit"),
    "adaptive.spec.active": ("flag", MAX, "1 while an epoch is open"),
    "adaptive.spec.watch_ranges": ("count", SUM, "merged guard ranges of "
                                   "the live epoch"),
    "net.pending": ("count", SUM, "connections still queued"),
    "net.completed": ("count", SUM, "connections accepted"),
    "net.quarantined": ("count", SUM, "connections quarantined by "
                        "recovery"),
    "net.dropped": ("count", SUM, "requests refused at the bounded accept "
                    "queue"),
    "net.capacity": ("count", MAX, "pending-queue bound"),
    "os.io_retries": ("count", SUM, "transient I/O errors absorbed"),
    "os.io_failures": ("count", SUM, "I/O operations that exhausted "
                       "retries"),
    "alerts.total": ("count", SUM, "security alerts recorded"),
    "alerts.by_policy.*": ("count", SUM, "alerts of one policy"),
    "resil.capture_count": ("count", SUM, "checkpoints captured (full and "
                            "delta)"),
    "resil.full_captures": ("count", SUM, "full base snapshots"),
    "resil.delta_captures": ("count", SUM, "copy-on-write delta snapshots"),
    "resil.checkpoint_pages": ("pages", SUM, "pages captured across all "
                               "checkpoints"),
    "resil.checkpoint_bytes": ("bytes", SUM, "page bytes captured across "
                               "all checkpoints"),
    "resil.recoveries": ("count", SUM, "rollback recoveries"),
    "resil.chain_length": ("count", SUM, "snapshots in the live delta "
                           "chain"),
    "resil.delta_ratio": ("frac", ("resil.delta_captures",
                                   "resil.capture_count"),
                          "checkpoints captured as deltas"),
    "threads.context_switches": ("count", SUM, "guest thread switches"),
    "threads.count": ("count", SUM, "guest threads"),
    "trace.events.*": ("count", SUM, "trace events of one kind, all kinds "
                       "(total) or pushed out of the ring (dropped)"),
    "trace.origins": ("count", SUM, "taint origins recorded"),
    # -- a fleet: merge_worker_metrics ------------------------------------
    "fleet.workers": ("count", None, "workers started"),
    "fleet.workers_ejected": ("count", None, "workers removed from "
                              "rotation"),
    "fleet.requests": ("count", None, "requests submitted"),
    "fleet.served": ("count", None, "clean requests answered"),
    "fleet.quarantined": ("count", None, "requests quarantined by "
                          "rollback"),
    "fleet.spilled": ("count", None, "requests past their first-choice "
                      "worker"),
    "fleet.dropped_frontend": ("count", None, "requests refused by the "
                               "frontend"),
    "fleet.rerouted": ("count", None, "requests re-routed after ejection"),
    "fleet.unserved": ("count", None, "requests orphaned with no "
                       "survivor"),
    "fleet.sim_cycles": ("cycles", None, "slowest worker's simulated "
                         "cycles"),
    "fleet.sim_throughput": ("req/Gcycle", None, "served requests per 1e9 "
                             "simulated cycles"),
    "fleet.wall_seconds": ("s", None, "host wall-clock time of the run"),
    "fleet.utilization.*": ("frac", None, "one worker's busy cycles over "
                            "the slowest worker's"),
    # -- a live frontend: frontend_metrics --------------------------------
    "frontend.dropped": ("count", None, "requests refused with every "
                         "routable queue full"),
    "frontend.spilled": ("count", None, "requests past their first-choice "
                         "worker"),
    "frontend.rejected": ("count", None, "requests shed by admission "
                          "control (503)"),
    "fleet.retransmits": ("count", None, "frame retransmissions after loss "
                          "or corruption"),
    "fleet.frame_rejects": ("count", None, "wire frames refused (bad magic "
                            "or CRC)"),
    "fleet.frames_lost": ("count", None, "wire frames dropped in flight"),
    "frontend.queued": ("count", None, "requests waiting across healthy "
                        "workers"),
    "frontend.workers_routable": ("count", None, "workers accepting new "
                                  "requests"),
    "frontend.workers_healthy": ("count", None, "workers in rotation, "
                                 "draining included"),
    "frontend.depth.*": ("count", None, "requests queued at one worker"),
    # -- a serving run: ServeResult.metrics -------------------------------
    "serve.requests": ("count", None, "open-loop arrivals"),
    "serve.served": ("count", None, "requests answered"),
    "serve.quarantined": ("count", None, "attacks absorbed by rollback"),
    "serve.dropped": ("count", None, "arrivals refused by backpressure"),
    "serve.rerouted": ("count", None, "requests re-routed after ejection"),
    "serve.migrated": ("count", None, "requests moved by "
                       "drain-via-migration"),
    "serve.migrations": ("count", None, "worker live migrations"),
    "serve.false_alerts": ("count", None, "alerts on clean traffic"),
    "serve.spec.commits": ("count", None, "speculation epochs committed "
                           "across the fleet"),
    "serve.spec.rollbacks": ("count", None, "speculation epochs rolled "
                             "back and replayed"),
    "serve.shed": ("count", None, "arrivals refused by admission control"),
    "serve.replayed": ("count", None, "requests replayed after worker "
                       "failure"),
    "serve.crashes": ("count", None, "chaos faults applied"),
    "serve.recoveries": ("count", None, "dead workers detected and "
                         "replaced"),
    "serve.acks_lost": ("count", None, "response frames undeliverable in "
                        "one budget"),
    "serve.duplicates_suppressed": ("count", None, "late completions "
                                    "deduplicated by the journal"),
    "serve.journal_open": ("count", None, "admitted requests never "
                           "completed"),
    "serve.recovery_latency.max": ("cycles", None, "slowest "
                                   "failure-to-ready interval"),
    **{f"serve.latency.{p}": ("cycles", None, f"{p} arrival-to-completion "
                              "latency") for p in ("p50", "p95", "p99")},
    "serve.latency.count": ("count", None, "completed requests"),
    "serve.latency.sum": ("cycles", None, "summed arrival-to-completion "
                          "latency"),
    "serve.latency.mean": ("cycles", None, "mean arrival-to-completion "
                           "latency"),
    "serve.latency.min": ("cycles", None, "fastest arrival-to-completion "
                          "latency"),
    "serve.latency.max": ("cycles", None, "slowest arrival-to-completion "
                          "latency"),
    "serve.throughput": ("req/Mcycle", None, "served requests per 1e6 "
                         "cycles of makespan"),
    "serve.queue_depth.max": ("count", None, "deepest sampled frontend "
                              "queue"),
    "serve.workers.peak": ("count", None, "most routable workers at once"),
    "serve.scale_ups": ("count", None, "autoscaler spawns"),
    "serve.drains": ("count", None, "autoscaler drains"),
    "serve.retires": ("count", None, "drained workers removed"),
}

#: ``prefix.`` of each ``prefix.*`` family row.
_FAMILIES = tuple(key[:-1] for key in CATALOGUE if key.endswith(".*"))


def row(name: str) -> tuple:
    """``(unit, fold, help)`` of ``name``: its own row or its family's."""
    found = CATALOGUE.get(name)
    if found is not None:
        return found
    for prefix in _FAMILIES:
        if name.startswith(prefix):
            return CATALOGUE[prefix + "*"]
    raise KeyError(f"metric {name!r} is not in the catalogue")


def render(flat: Dict[str, Number], title: str = "metrics") -> str:
    """Aligned text table of ``flat``, one metric a line with its unit."""
    rows: List[str] = [title, "-" * max(len(title), 8)]
    width = max((len(name) for name in flat), default=8)
    for name in sorted(flat):
        value = flat[name]
        shown = f"{value:,.2f}" if isinstance(value, float) else f"{value:,}"
        rows.append(f"{name:<{width}}  {shown} {row(name)[0]}")
    return "\n".join(rows)


def collect_machine(machine) -> Dict[str, Number]:
    """One machine's observable state as ``{name: value}``."""
    counters = machine.counters
    flat: Dict[str, Number] = {
        "cpu.instructions": counters.instructions,
        "cpu.cycles": counters.cycles,
        "cpu.issue_cycles": counters.issue_cycles,
        "cpu.stall_cycles": counters.stall_cycles,
        "cpu.branch_penalty_cycles": counters.branch_penalty_cycles,
        "cpu.io_cycles": counters.io_cycles,
        "cpu.loads": counters.loads,
        "cpu.stores": counters.stores,
        "cpu.branches_taken": counters.branches_taken,
        "shift.instrumentation_cycles": counters.instrumentation_cycles(),
    }
    for role, _ in counters.pair_costs:
        if role is not None:
            flat[f"shift.role_cycles.{role}"] = counters.role_cycles(role)
    caches = machine.cpu.caches
    for lvl, cache in zip(_LEVELS, (caches.l1, caches.l2, caches.l3)):
        stats = cache.stats
        flat[f"cache.{lvl}.accesses"] = stats.accesses
        flat[f"cache.{lvl}.misses"] = stats.misses
        flat[f"cache.{lvl}.miss_rate"] = round(stats.miss_rate, 6)

    taint_map = machine.taint_map
    flat["mem.pages_touched"] = machine.memory.pages_touched()
    # Every Machine funnels tag writes through the live-granule counter.
    flat["taint.bitmap_population"] = taint_map.live_granules
    flat["taint.live_bytes"] = taint_map.live_bytes
    flat["taint.granularity"] = taint_map.granularity

    adaptive = machine.adaptive
    if adaptive is not None:
        flat["adaptive.mode"] = 1 if adaptive.mode == "track" else 0
        flat["adaptive.switches_to_fast"] = adaptive.switches_to_fast
        flat["adaptive.switches_to_track"] = adaptive.switches_to_track

    spec = machine.spec
    if spec is not None:
        for name in ("epochs", "commits", "rollbacks",
                     "committed_instructions", "wasted_instructions",
                     "deferred_sends", "deferred_bytes"):
            flat[f"adaptive.spec.{name}"] = getattr(spec, name)
        flat["adaptive.spec.active"] = 1 if spec.active else 0
        flat["adaptive.spec.watch_ranges"] = spec.watch_ranges

    net = machine.net
    flat["net.pending"] = len(net.pending)
    flat["net.completed"] = len(net.completed)
    flat["net.quarantined"] = len(net.quarantined)
    flat["net.dropped"] = net.dropped
    if net.capacity is not None:
        flat["net.capacity"] = net.capacity
    flat["os.io_retries"] = machine.os.io_retries
    flat["os.io_failures"] = machine.os.io_failures

    flat["alerts.total"] = len(machine.alerts)
    for alert in machine.alerts:
        name = f"alerts.by_policy.{alert.policy_id}"
        flat[name] = flat.get(name, 0) + 1

    resil = machine.resil
    if resil is not None:
        flat["resil.capture_count"] = resil.checkpoints_taken
        flat["resil.full_captures"] = resil.full_captures
        flat["resil.delta_captures"] = resil.delta_captures
        flat["resil.checkpoint_pages"] = resil.pages_captured
        flat["resil.checkpoint_bytes"] = resil.bytes_captured
        flat["resil.recoveries"] = resil.recoveries
        flat["resil.chain_length"] = len(resil.chain)
        if resil.checkpoints_taken:
            flat["resil.delta_ratio"] = round(
                resil.delta_captures / resil.checkpoints_taken, 6)

    flat["threads.context_switches"] = machine.threads.context_switches
    flat["threads.count"] = len(machine.threads.threads)

    obs = machine.obs
    if obs is not None:
        for name, value in obs.tracer.summary().items():
            flat[f"trace.{name}"] = value
        flat["trace.origins"] = len(obs.provenance.origins)
    return flat
