"""Chaos benchmark: crash campaigns, exactly-once recovery, shedding.

Five experiments, one report (``BENCH_chaos.json``):

1. **Crash campaigns** (one per seed): an attack-laced open-loop
   workload served while a seeded :class:`~repro.chaos.schedule
   .ChaosSchedule` kills workers fail-stop, freezes one long enough to
   become a zombie, and corrupts/drops response frames on the wire.
   Each campaign runs against an *uncrashed control* of the same
   workload and compares outcome digests (what was served, stripped of
   timing and placement): equal means crashes replayed exactly the
   open requests, the journal suppressed every duplicate, and no
   request was lost.  Quarantine evidence across recovery and a
   same-seed replay are checked too.
2. **Zombie dedup**: a single worker stalled past the failure
   detector's patience is declared dead and replaced; when it wakes
   and finishes its request anyway, the request-id journal suppresses
   the duplicate (``duplicates_suppressed``).
3. **Graceful degradation**: offered load at twice capacity with
   admission control armed: shedding, explicit 503-style rejections
   against silent drops, and exactly-once completion of every
   *accepted* request, admitted attacks quarantined.
4. **Wire chaos**: heavy frame corruption/drop rates absorbed by the
   frontend's bounded retransmit: the ``fleet.retransmits`` /
   ``fleet.frame_rejects`` counters and an outcome digest compared to
   a clean-wire control.
5. **Supervised wall-clock arm** (full mode only): real worker
   processes, a real ``SIGKILL`` directive, heartbeat detection and
   blob-rehydrated replacement via
   :class:`repro.fleet.supervised.SupervisedFleet` — reported, never
   gated (wall-clock numbers are not bit-reproducible).

Run and gated as the ``chaos`` suite of :mod:`repro.harness.suites`,
whose gate table holds the conditions::

    PYTHONPATH=src python -m repro.harness.suites chaos --quick --gate
"""

from __future__ import annotations

from typing import Dict, List

from repro.chaos import ChaosEvent, ChaosSchedule, RecoveryPolicy, WorkerChaos
from repro.fleet.supervised import SupervisedFleet
from repro.harness.servebench import (
    ATTACK_SIZES,
    ATTACK_WEIGHTS,
    _attack_config,
    _mean_service,
    _workload,
)
from repro.serve import ServeRequest, ServeSim, ServiceModel, describe

#: Campaign fleet size (crashes walk the workers round-robin).
CAMPAIGN_WORKERS = 3

#: Fail-stop crashes per campaign trial.
CAMPAIGN_CRASHES = 2

#: Stalls per campaign trial (sized to outlast the detector: zombies).
CAMPAIGN_STALLS = 1

#: Per-attempt frame corruption / drop probabilities in the campaigns.
CAMPAIGN_CORRUPT = 0.08
CAMPAIGN_DROP = 0.05

#: Wire-chaos experiment rates (deliberately heavier than the campaign).
WIRE_CORRUPT = 0.2
WIRE_DROP = 0.1

#: Attack share of campaign traffic.
ATTACK_FRACTION = 0.25

#: Slack multiplier on the analytic recovery-latency bound.
RECOVERY_SLACK = 1.5


def _attack_workload(seed: int, offered: float, requests: int, *,
                     attack_fraction: float = ATTACK_FRACTION) -> List:
    """One steady open-loop phase of the attack-mix file sizes."""
    return _workload(seed, offered, requests, sizes=ATTACK_SIZES,
                     weights=ATTACK_WEIGHTS, attack_fraction=attack_fraction)


def recovery_bound(service: ServiceModel, policy: RecoveryPolicy) -> float:
    """Analytic worst-case failure-to-ready latency, with slack.

    Detection waits out the detector's patience; the replacement then
    pays boot plus blob rehydration.  Anything slower than this bound
    means recovery is doing work it should not be.
    """
    return RECOVERY_SLACK * (policy.detection_cycles + service.boot_cycles
                             + policy.rehydrate_cost(service))


def campaign_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """One seeded crash campaign vs. its uncrashed control."""
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    capacity = CAMPAIGN_WORKERS * 1e6 / mean
    offered = 0.8 * capacity
    duration = requests * 1e6 / offered
    policy = RecoveryPolicy()
    chaos = ChaosSchedule.campaign(
        seed, workers=CAMPAIGN_WORKERS, duration=duration,
        crashes=CAMPAIGN_CRASHES, stalls=CAMPAIGN_STALLS,
        stall_cycles=4.0 * policy.detection_cycles,
        corrupt_rate=CAMPAIGN_CORRUPT, drop_rate=CAMPAIGN_DROP)

    workload = _attack_workload(seed, offered, requests)
    control = ServeSim(workers=CAMPAIGN_WORKERS, seed=seed,
                       service_model=service).run(workload)
    result = ServeSim(workers=CAMPAIGN_WORKERS, seed=seed,
                      service_model=service, chaos=chaos,
                      recovery=policy).run(workload)
    rerun = ServeSim(workers=CAMPAIGN_WORKERS, seed=seed,
                     service_model=service, chaos=chaos,
                     recovery=policy).run(
        _attack_workload(seed, offered, requests))

    detection = result.attack_detection()
    bound = recovery_bound(service, policy)
    journal = result.journal.to_dict()
    frontend = result.frontend
    return {
        "seed": seed,
        "workload": describe(workload),
        "schedule": chaos.describe(),
        "requests": len(result.records),
        "served": result.served,
        "quarantined": result.quarantined,
        "dropped": result.dropped,
        "shed": result.shed,
        "replayed": result.replayed,
        "stale_completions": result.stale_completions,
        "acks_lost": result.acks_lost,
        "retransmits": frontend.retransmits,
        "frame_rejects": frontend.frame_rejects,
        "frames_lost": frontend.frames_lost,
        "journal": journal,
        "recoveries": result.recoveries,
        "recovery_latency_max": round(result.recovery_latency_max(), 1),
        "recovery_bound": round(bound, 1),
        "recovery_bounded": result.recovery_latency_max() <= bound,
        "detection": detection,
        "false_alerts": result.false_alerts,
        "latency": {k: round(v, 1)
                    for k, v in result.latency_percentiles().items()},
        "control": {
            "served": control.served,
            "quarantined": control.quarantined,
            "detection": control.attack_detection(),
            "p99": round(control.latency_percentiles()["p99"], 1),
        },
        "p99_vs_control": round(
            result.latency_percentiles()["p99"]
            - control.latency_percentiles()["p99"], 1),
        "outcome_digest": result.outcome_digest(),
        "outcome_matches_control": (result.outcome_digest()
                                    == control.outcome_digest()),
        "evidence_intact": result.quarantined == control.quarantined,
        "digest": result.digest(),
        "rerun_identical": result.digest() == rerun.digest(),
        "exactly_once": (journal["exactly_once"]
                         and journal["open"] == 0
                         and result.dropped == 0),
    }


def zombie_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """Stall one worker past the detector: the journal must dedup."""
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    offered = 0.9 * 1e6 / mean  # keep the single worker busy
    duration = requests * 1e6 / offered
    policy = RecoveryPolicy()
    chaos = ChaosSchedule([
        ChaosEvent(time=0.4 * duration, kind="stall", worker="w0",
                   duration=6.0 * policy.detection_cycles),
    ], seed=seed)
    result = ServeSim(workers=1, seed=seed, service_model=service,
                      chaos=chaos, recovery=policy).run(
        _attack_workload(seed, offered, requests, attack_fraction=0.0))
    journal = result.journal.to_dict()
    return {
        "requests": len(result.records),
        "served": result.served,
        "recoveries": result.recoveries,
        "stale_completions": result.stale_completions,
        "journal": journal,
        "deduped": journal["duplicates_suppressed"] >= 1,
        "exactly_once": (journal["exactly_once"]
                         and journal["open"] == 0
                         and result.dropped == 0),
    }


def shed_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """Twice-capacity load with admission control armed."""
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    capacity = 2 * 1e6 / mean
    offered = 2.0 * capacity
    duration = requests * 1e6 / offered
    policy = RecoveryPolicy()
    chaos = ChaosSchedule.campaign(
        seed, workers=2, duration=duration, crashes=1)
    result = ServeSim(workers=2, seed=seed, service_model=service,
                      chaos=chaos, recovery=policy,
                      shed_limit=6).run(
        _attack_workload(seed, offered, requests))
    journal = result.journal.to_dict()
    detection = result.attack_detection()
    return {
        "offered_multiplier": 2.0,
        "shed_limit": 6,
        "requests": len(result.records),
        "shed": result.shed,
        "rejected_counter": result.frontend.rejected,
        "dropped": result.dropped,
        "served": result.served,
        "quarantined": result.quarantined,
        "journal": journal,
        "recoveries": len(result.recoveries),
        "detection": detection,
        "accepted_complete": (journal["open"] == 0
                              and journal["completed"]
                              == journal["admitted"]),
        "no_silent_drops": (result.dropped == 0
                            and result.shed == result.frontend.rejected),
        "exactly_once": journal["exactly_once"],
    }


def wire_run(service: ServiceModel, seed: int, requests: int) -> Dict:
    """Heavy wire damage absorbed by bounded retransmit."""
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    offered = 0.7 * 2 * 1e6 / mean
    chaos = ChaosSchedule(seed=seed, corrupt_rate=WIRE_CORRUPT,
                          drop_rate=WIRE_DROP)
    workload = _attack_workload(seed, offered, requests)
    control = ServeSim(workers=2, seed=seed,
                       service_model=service).run(workload)
    result = ServeSim(workers=2, seed=seed, service_model=service,
                      chaos=chaos).run(workload)
    journal = result.journal.to_dict()
    frontend = result.frontend
    return {
        "corrupt_rate": WIRE_CORRUPT,
        "drop_rate": WIRE_DROP,
        "requests": len(result.records),
        "served": result.served,
        "retransmits": frontend.retransmits,
        "frame_rejects": frontend.frame_rejects,
        "frames_lost": frontend.frames_lost,
        "acks_lost": result.acks_lost,
        "retransmit_cycles": round(result.retransmit_cycles, 1),
        "journal": journal,
        "wire_visible": (frontend.retransmits > 0
                         and frontend.frame_rejects > 0),
        "outcome_matches_control": (result.outcome_digest()
                                    == control.outcome_digest()),
        "exactly_once": (journal["exactly_once"]
                         and journal["open"] == 0
                         and result.dropped == 0),
    }


def supervised_run(engine: str, seed: int, requests: int) -> Dict:
    """Real processes, real SIGKILL (reported, never gated)."""
    chaos = ChaosSchedule(directives={
        "w0": WorkerChaos(crash_after=2),
    }, seed=seed)
    workload = [ServeRequest(index=i, session=i, arrival=0.0,
                             payload=b"GET /static/page-%d.html" % i)
                for i in range(requests)]
    return SupervisedFleet(_attack_config(engine), workers=2, seed=seed,
                           routing="round_robin", chaos=chaos).run(workload)


def run_suite(quick: bool, seed: int) -> Dict:
    """All experiments; returns the report body."""
    requests = 50 if quick else 110
    engine = "predecoded"
    seeds = [seed + i for i in range(2 if quick else 3)]
    service = ServiceModel(_attack_config(engine))

    print("chaosbench: measuring service budgets", flush=True)
    mean = _mean_service(service, ATTACK_SIZES, ATTACK_WEIGHTS)
    print(f"  boot {service.boot_cycles:.0f} cycles, mix mean "
          f"{mean:.0f} cycles ({service.measured} payloads measured)",
          flush=True)

    campaigns = []
    for s in seeds:
        print(f"chaosbench: crash campaign (seed {s})", flush=True)
        trial = campaign_run(service, s, requests)
        campaigns.append(trial)
        print(f"  {len(trial['recoveries'])} recoveries, "
              f"{trial['replayed']} replayed, journal "
              f"{trial['journal']['completed']}/"
              f"{trial['journal']['admitted']}, outcome==control: "
              f"{trial['outcome_matches_control']}, rerun identical: "
              f"{trial['rerun_identical']}", flush=True)

    print("chaosbench: zombie dedup", flush=True)
    zombie = zombie_run(service, seed, requests=max(20, requests // 2))
    print(f"  {zombie['journal']['duplicates_suppressed']} duplicate(s) "
          f"suppressed, exactly-once: {zombie['exactly_once']}",
          flush=True)

    print("chaosbench: graceful degradation (2x capacity)", flush=True)
    shed = shed_run(service, seed, requests)
    print(f"  {shed['shed']} shed / {shed['requests']} offered, "
          f"accepted complete: {shed['accepted_complete']}, silent "
          f"drops: {shed['dropped']}", flush=True)

    print("chaosbench: wire chaos", flush=True)
    wire = wire_run(service, seed, requests=max(30, requests // 2))
    print(f"  {wire['retransmits']} retransmits "
          f"({wire['frame_rejects']} CRC rejects, "
          f"{wire['frames_lost']} lost), outcome==control: "
          f"{wire['outcome_matches_control']}", flush=True)

    supervised = None
    if not quick:
        print("chaosbench: supervised wall-clock arm (real SIGKILL)",
              flush=True)
        supervised = supervised_run(engine, seed, requests=8)
        print(f"  {supervised['completed']}/{supervised['requests']} done, "
              f"{len(supervised['recoveries'])} recoveries, exactly-once: "
              f"{supervised['journal']['exactly_once']}", flush=True)

    return {
        "service_model": {
            "boot_cycles": service.boot_cycles,
            "payloads_measured": service.measured,
            "mean_service_cycles": round(mean, 1),
            "migration_cycles": round(service.migration_cycles, 1),
        },
        "campaigns": campaigns,
        "zombie": zombie,
        "shedding": shed,
        "wire": wire,
        "supervised": supervised,
    }
