"""Serving benchmark: latency vs offered load, autoscaling, detection.

Five experiments, one report (``BENCH_serve.json``):

1. **Latency/throughput curve**: the same heavy-tailed open-loop
   workload shape swept across offered loads below and above the
   fixed fleet's capacity knee (multipliers of the measured per-worker
   service rate).  Each point reports p50/p95/p99 arrival-to-response
   latency, throughput, and peak queue depth — the curve closed-loop
   fleetbench cannot see.
2. **Autoscaling at the knee**: the above-knee load re-served with the
   queue-depth autoscaler active: its p99 against :data:`P99_BOUND`
   mean service times and against the fixed fleet's p99 at the same
   load, and whether the worker count grew.
3. **Attack mix under scaling**: a burst-then-taper workload laced
   with traversal/overflow attack sessions against the vulnerable
   server variant, forcing scale-up during the burst and drain during
   the taper: attacks quarantined (measured on real recover-mode
   Machines), false alerts on clean traffic, scale-ups and drained
   retires.
4. **Reproducibility**: the autoscaled run repeated at the same seed,
   digests compared — the simulated serving loop is deterministic end
   to end.
5. **Wall-clock mode** (full mode only): the same workload shape on
   real OS processes via
   :meth:`repro.fleet.supervised.SupervisedFleet.run`, reported
   without gating.

Run and gated as the ``serve`` suite of :mod:`repro.harness.suites`,
whose gate table holds the conditions::

    PYTHONPATH=src python -m repro.harness.suites serve --quick --gate
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.webserver import make_request
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet.driver import FleetConfig
from repro.fleet.supervised import SupervisedFleet
from repro.serve import (
    AutoscalerConfig,
    LoadConfig,
    LoadPhase,
    ServeSim,
    ServiceModel,
    describe,
    generate,
)

#: Offered-load multipliers of fixed-fleet capacity for the curve
#: (>= 4 points; the knee is the first one past 1.0).
LOAD_MULTIPLIERS = (0.5, 0.75, 0.9, 1.1, 1.35)

#: Baseline worker count for the curve and the autoscaled arm.
BASE_WORKERS = 2

#: Autoscaled p99 must stay within this many mean service times.  The
#: relative condition (autoscaled p99 below the fixed fleet's at the
#: same load) is the strong gate; this absolute bound only catches a
#: pathological blowup the comparison could miss.
P99_BOUND = 25.0

#: File-size mix served by the curve workloads (KB, with weights).
CURVE_SIZES = (4, 8, 16)
CURVE_WEIGHTS = (0.7, 0.2, 0.1)

#: Attack-mix server runs strict byte granularity so the planted
#: overflow is caught (same configuration as fleetbench's mix).
ATTACK_OPTIONS = BYTE_LEVEL
ATTACK_SIZES = (4, 8)
ATTACK_WEIGHTS = (0.8, 0.2)

#: Per-request instruction budget for recover-mode workers.
SERVE_WATCHDOG = 2_000_000


def _curve_config() -> FleetConfig:
    return FleetConfig(sizes=CURVE_SIZES, recover_watchdog=SERVE_WATCHDOG)


def _attack_config() -> FleetConfig:
    return FleetConfig(variant="resil", options=ATTACK_OPTIONS,
                       sizes=ATTACK_SIZES, recover_watchdog=SERVE_WATCHDOG)


def _mean_service(service: ServiceModel, sizes, weights) -> float:
    """Weighted mean measured budget over the clean payload mix."""
    total = sum(weights)
    return sum(service.cost(make_request(kb)).cycles * w
               for kb, w in zip(sizes, weights)) / total


def _workload(seed: int, offered: float, requests: int, *,
              sizes, weights, attack_fraction: float = 0.0,
              taper: float = 0.0) -> List:
    """One open-loop workload of ~``requests`` arrivals at ``offered``.

    With ``taper`` the load runs two phases: a burst at ``offered``
    for the first ~60% of requests, then the remainder at
    ``taper * offered`` (the autoscaler's scale-down story).
    """
    if taper:
        burst = LoadPhase(0.6 * requests * 1e6 / offered, offered)
        low_load = taper * offered
        cool = LoadPhase(0.4 * requests * 1e6 / low_load, low_load)
        phases = [burst, cool]
    else:
        phases = [LoadPhase(requests * 1e6 / offered, offered)]
    return generate(LoadConfig(
        seed=seed, phases=phases, sizes_kb=sizes, size_weights=weights,
        attack_fraction=attack_fraction))


def curve_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """Sweep offered load across the knee on a fixed fleet."""
    mean = _mean_service(service, CURVE_SIZES, CURVE_WEIGHTS)
    capacity = BASE_WORKERS * 1e6 / mean  # requests per 1e6 cycles
    points = []
    for mult in LOAD_MULTIPLIERS:
        offered = mult * capacity
        workload = _workload(seed, offered, requests,
                             sizes=CURVE_SIZES, weights=CURVE_WEIGHTS)
        sim = ServeSim(workers=BASE_WORKERS, seed=seed,
                       service_model=service)
        result = sim.run(workload)
        lat = result.latency_percentiles()
        points.append({
            "multiplier": mult,
            "offered_load": round(offered, 3),
            "requests": len(result.records),
            "served": result.served,
            "dropped": result.dropped,
            "latency": {k: round(v, 1) for k, v in lat.items()},
            "p99_in_services": round(lat["p99"] / mean, 2),
            "throughput": round(result.throughput, 3),
            "max_queue_depth": result.max_queue_depth,
        })
    knee = next(m for m in LOAD_MULTIPLIERS if m > 1.0)
    return {
        "workers": BASE_WORKERS,
        "mean_service_cycles": round(mean, 1),
        "capacity": round(capacity, 3),
        "knee_multiplier": knee,
        "points": points,
    }


def autoscale_run(service: ServiceModel, curve: Dict, seed: int,
                  requests: int) -> Dict:
    """The above-knee load again, with the autoscaler active."""
    mean = curve["mean_service_cycles"]
    knee = curve["knee_multiplier"]
    offered = knee * curve["capacity"]
    workload = _workload(seed, offered, requests,
                         sizes=CURVE_SIZES, weights=CURVE_WEIGHTS)
    auto = AutoscalerConfig(
        min_workers=BASE_WORKERS, max_workers=8,
        interval=mean / 4.0, cooldown_ticks=3)
    sim = ServeSim(workers=BASE_WORKERS, seed=seed,
                   service_model=service, autoscaler=auto)
    result = sim.run(workload)
    rerun = ServeSim(workers=BASE_WORKERS, seed=seed,
                     service_model=service, autoscaler=auto).run(
        _workload(seed, offered, requests,
                  sizes=CURVE_SIZES, weights=CURVE_WEIGHTS))
    lat = result.latency_percentiles()
    fixed_point = next(p for p in curve["points"]
                       if p["multiplier"] == knee)
    bound = P99_BOUND * mean
    return {
        "offered_load": round(offered, 3),
        "requests": len(result.records),
        "served": result.served,
        "dropped": result.dropped,
        "latency": {k: round(v, 1) for k, v in lat.items()},
        "p99_in_services": round(lat["p99"] / mean, 2),
        "p99_fixed": fixed_point["latency"]["p99"],
        "p99_bound": round(bound, 1),
        "p99_bounded": lat["p99"] <= bound,
        "p99_beats_fixed": lat["p99"] <= fixed_point["latency"]["p99"],
        "peak_workers": result.peak_workers,
        "scaled_up": result.peak_workers > BASE_WORKERS,
        "worker_trace": result.worker_trace(),
        "scale_events": result.scale_events,
        "digest": result.digest(),
        "rerun_identical": result.digest() == rerun.digest(),
    }


def attack_run(seed: int, requests: int) -> Dict:
    """Burst-then-taper attack mix: detect everything while scaling."""
    service = ServiceModel(_attack_config())
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    capacity = BASE_WORKERS * 1e6 / mean
    offered = 2.0 * capacity  # burst well past the fixed knee
    workload = _workload(seed, offered, requests,
                         sizes=ATTACK_SIZES, weights=ATTACK_WEIGHTS,
                         attack_fraction=0.3, taper=0.15)
    auto = AutoscalerConfig(
        min_workers=BASE_WORKERS, max_workers=8,
        interval=mean / 4.0, cooldown_ticks=3)
    sim = ServeSim(workers=BASE_WORKERS, seed=seed,
                   service_model=service, autoscaler=auto)
    result = sim.run(workload)
    # Zero-downtime arm: the same workload with drained workers retiring
    # via live migration (queued requests ship in the state blob) rather
    # than serving out their queue first.
    migrated = ServeSim(workers=BASE_WORKERS, seed=seed,
                        service_model=service, autoscaler=auto,
                        migrate_on_drain=True).run(workload)
    detection = result.attack_detection()
    clean = sum(1 for r in result.records if r.kind == "clean")
    scale_ups = sum(1 for e in result.scale_events
                    if e["action"] == "scale_up")
    retires = sum(1 for e in result.scale_events
                  if e["action"] == "retire")
    migrations = sum(1 for e in migrated.scale_events
                     if e["action"] == "migrate")
    mig_detection = migrated.attack_detection()
    return {
        "workload": describe(workload),
        "mean_service_cycles": round(mean, 1),
        "offered_burst": round(offered, 3),
        "clean_requests": clean,
        "served": result.served,
        "quarantined": result.quarantined,
        "dropped": result.dropped,
        "detection": detection,
        "false_alerts": result.false_alerts,
        "scale_ups": scale_ups,
        "retires": retires,
        "peak_workers": result.peak_workers,
        "latency": {k: round(v, 1)
                    for k, v in result.latency_percentiles().items()},
        "scale_events": result.scale_events,
        "exact": (result.served == clean
                  and detection["detection_rate"] == 1.0
                  and result.false_alerts == 0
                  and result.dropped == 0),
        "drain_migration": {
            "migration_blob_bytes": service.migration_blob_bytes,
            "migration_cycles": round(service.migration_cycles, 1),
            "migrations": migrations,
            "requests_migrated": migrated.migrated,
            "served": migrated.served,
            "quarantined": migrated.quarantined,
            "dropped": migrated.dropped,
            "detection": mig_detection,
            "false_alerts": migrated.false_alerts,
            "p99": round(migrated.latency_percentiles()["p99"], 1),
            # Every admitted request completes exactly once and the
            # outcome tallies match the serve-out-the-queue drain: no
            # request was dropped or re-executed by migrating.
            "zero_downtime": (
                migrated.dropped == 0
                and migrated.served == result.served
                and migrated.quarantined == result.quarantined
                and mig_detection["detection_rate"] == 1.0
                and migrated.false_alerts == 0),
        },
    }


def wallclock_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """Real-process open-loop serving (reported, never gated)."""
    import time

    from repro.fleet.driver import run_worker

    # Calibrate cycles-per-second from one real request so the
    # workload's cycle schedule replays at realistic pressure.
    mean = _mean_service(service, CURVE_SIZES, CURVE_WEIGHTS)
    started = time.perf_counter()
    run_worker(_curve_config(), "wall-cal",
               [(make_request(4), None)])
    wall_per_request = max(time.perf_counter() - started, 1e-4)
    time_scale = service.cost(make_request(4)).cycles / wall_per_request
    offered = 0.7 * BASE_WORKERS * 1e6 / mean
    workload = _workload(seed, offered, requests,
                         sizes=CURVE_SIZES, weights=CURVE_WEIGHTS)
    report = SupervisedFleet(_curve_config(), workers=BASE_WORKERS,
                             seed=seed).run(workload, time_scale=time_scale)
    report["offered_load_cycles"] = round(offered, 3)
    return report


def run_suite(quick: bool, seed: int) -> Dict:
    """All experiments; returns the report body."""
    requests = 60 if quick else 140
    service = ServiceModel(_curve_config())
    mean = _mean_service(service, CURVE_SIZES, CURVE_WEIGHTS)
    curve = curve_run(service, seed, requests)
    autoscale = autoscale_run(service, curve, seed, requests)
    attack = attack_run(seed, requests=max(60, requests // 2))
    wallclock = None if quick else wallclock_run(
        service, seed, requests=min(requests // 3, 40))
    return {
        "service_model": {
            "boot_cycles": service.boot_cycles,
            "payloads_measured": service.measured,
            "mean_service_cycles": round(mean, 1),
        },
        "curve": curve,
        "autoscale": autoscale,
        "attack_mix": attack,
        "wallclock": wallclock,
    }
