"""Fleet benchmark: scaling, attack mix, and the two-tier taint proof.

Five experiments, one report (``BENCH_fleet.json``):

1. **Throughput scaling**: the same request batch served by fleets of
   1/2/4/8 workers.  Workers are independent machines running
   concurrently in simulated time, so fleet throughput is measured
   against the *slowest worker's* cycles; the gate requires >= 2.5x
   simulated throughput going from 1 to 4 workers.
2. **Attack mix**: clean requests interleaved with directory-traversal
   and buffer-overflow attacks, sharded across the fleet.  Workers run
   in ``recover`` mode: every attack must be quarantined (100%
   detection), every clean request answered, no worker ejected.
3. **Clean control**: the same fleet on attack-free traffic must
   produce zero alerts and zero quarantines — the false-positive side
   of the detection claim.
4. **Two-tier proof** (:mod:`repro.fleet.tiers`): a traversal injected
   at the tier-1 proxies is caught by H2 at the tier-2 backend *only*
   because the taint crossed the wire in the TaggedMessage frame; the
   control arm (tags stripped) must leak the planted secret with zero
   alerts.
5. **Reproducibility**: the scaling fleet re-run at the same seed must
   produce a bit-identical result digest, and the multiprocessing
   driver must match the in-process driver digest exactly.

::

    PYTHONPATH=src python -m repro.harness.fleetbench --quick --gate

``--gate`` exits non-zero unless every experiment above holds — the
conditions the CI ``smoke (fleet)`` job enforces (quick mode gates the
1->2 worker scaling at >= 1.6x instead).
"""

from __future__ import annotations

import sys
from typing import Dict, List

from repro.apps.webserver import (
    make_request,
    overflow_request,
    traversal_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.fleet import FleetConfig, FleetDriver, two_tier_experiment
from repro.harness.benchcli import bench_parser, write_report

#: Fleet sizes measured by the scaling experiment.
SCALING_WORKERS = (1, 2, 4, 8)
QUICK_WORKERS = (1, 2)

#: Strict pointer policy so the overflow attack in the mix is caught.
ATTACK_OPTIONS = ShiftOptions(granularity=1)

#: Per-request instruction budget for recover-mode fleet workers.
FLEET_WATCHDOG = 2_000_000


def _fleet_config(engine: str, *, strict: bool = False) -> FleetConfig:
    # Strict fleets serve the deliberately vulnerable server variant
    # under the strict pointer policy — the configuration whose planted
    # overflow the mix's buffer-smash attack actually reaches.
    return FleetConfig(
        variant="resil" if strict else "standard",
        options=ATTACK_OPTIONS if strict else None,
        engine=engine,
        recover_watchdog=FLEET_WATCHDOG,
    )


def scaling_run(worker_counts, requests: int, seed: int,
                engine: str) -> Dict:
    """Serve one batch with fleets of increasing size."""
    batch = [make_request(4) for _ in range(requests)]
    per_fleet: Dict[str, Dict] = {}
    digests: Dict[int, str] = {}
    for workers in worker_counts:
        driver = FleetDriver(_fleet_config(engine), workers=workers,
                             routing="round_robin", seed=seed)
        result = driver.run(batch)
        digests[workers] = result.digest()
        per_fleet[str(workers)] = {
            "workers": workers,
            "served": result.served,
            "sim_cycles": result.sim_cycles,
            "sim_throughput": result.sim_throughput,
            "routed": result.routed,
            "wall_seconds": round(result.wall_seconds, 3),
        }
    base = per_fleet[str(worker_counts[0])]["sim_throughput"]
    speedups = {
        str(w): per_fleet[str(w)]["sim_throughput"] / base
        for w in worker_counts
    }
    target = worker_counts[-1] if len(worker_counts) < 3 else 4
    return {
        "requests": requests,
        "fleets": per_fleet,
        "speedup_vs_1": {k: round(v, 3) for k, v in speedups.items()},
        "target_workers": target,
        "scaling": round(speedups[str(target)], 3),
        "digests": digests,
    }


def attack_mix_run(workers: int, clean_requests: int, seed: int,
                   engine: str) -> Dict:
    """Clean + attack traffic sharded across a recover-mode fleet."""
    attacks: List[bytes] = [traversal_request(), overflow_request(),
                            traversal_request("/../etc/passwd")]
    batch: List[bytes] = []
    for i in range(clean_requests):
        batch.append(make_request(4))
        if i < len(attacks):
            batch.append(attacks[i])
    driver = FleetDriver(_fleet_config(engine, strict=True),
                         workers=workers, seed=seed)
    result = driver.run(batch)
    detection = (result.quarantined / len(attacks)) if attacks else 1.0
    exact = (result.served == clean_requests
             and result.quarantined == len(attacks)
             and not result.ejected
             and result.unserved == 0)
    return {
        "workers": workers,
        "clean_requests": clean_requests,
        "attacks": len(attacks),
        "served": result.served,
        "quarantined": result.quarantined,
        "detection_rate": detection,
        "ejected": result.ejected,
        "incidents": [
            {"worker": i["worker"], "request": i["request_index"],
             "reason": i["reason"], "policy": i["policy_id"]}
            for i in result.incidents()
        ],
        "exact": exact,
    }


def clean_control_run(workers: int, requests: int, seed: int,
                      engine: str) -> Dict:
    """Attack-free traffic: any alert or quarantine is a false positive."""
    batch = [make_request(4) for _ in range(requests)]
    driver = FleetDriver(_fleet_config(engine, strict=True),
                         workers=workers, seed=seed)
    result = driver.run(batch)
    false_alerts = sum(len(w["alerts"]) for w in result.workers)
    return {
        "workers": workers,
        "requests": requests,
        "served": result.served,
        "false_alerts": false_alerts,
        "quarantined": result.quarantined,
        "clean": (result.served == requests and false_alerts == 0
                  and result.quarantined == 0),
    }


def reproducibility_run(workers: int, requests: int, seed: int,
                        engine: str) -> Dict:
    """Same seed twice in-process, once via multiprocessing: one digest."""
    batch = [make_request(4) for _ in range(requests)]
    driver = FleetDriver(_fleet_config(engine), workers=workers, seed=seed)
    first = driver.run(batch).digest()
    second = driver.run(batch).digest()
    mp_result = driver.run(batch, processes=True)
    return {
        "workers": workers,
        "requests": requests,
        "digest": first,
        "rerun_identical": first == second,
        "processes_identical": first == mp_result.digest(),
        # The multiprocessing path is the one with a real wall clock;
        # utilization is busy-cycles / slowest-worker-cycles per worker.
        "multiprocessing": {
            "wall_seconds": round(mp_result.wall_seconds, 3),
            "utilization": {wid: round(u, 4)
                            for wid, u in mp_result.utilization.items()},
        },
    }


def run_suite(quick: bool, seed: int, engine: str, requests: int) -> Dict:
    """All five experiments; returns the full report dict."""
    worker_counts = QUICK_WORKERS if quick else SCALING_WORKERS
    mix_workers = 2

    print("fleetbench: throughput scaling", flush=True)
    scaling = scaling_run(worker_counts, requests, seed, engine)
    for w in worker_counts:
        entry = scaling["fleets"][str(w)]
        print(f"  {w} worker(s): {entry['sim_cycles']:.0f} cycles, "
              f"{entry['sim_throughput']:.1f} req/Gcycle "
              f"({scaling['speedup_vs_1'][str(w)]:.2f}x)", flush=True)

    print("fleetbench: attack mix", flush=True)
    mix = attack_mix_run(mix_workers, clean_requests=6, seed=seed,
                         engine=engine)
    print(f"  served {mix['served']}/{mix['clean_requests']} clean, "
          f"quarantined {mix['quarantined']}/{mix['attacks']} attacks, "
          f"detection {mix['detection_rate']:.2f}", flush=True)

    print("fleetbench: clean control", flush=True)
    control = clean_control_run(mix_workers, requests=6, seed=seed,
                                engine=engine)
    print(f"  served {control['served']}/{control['requests']}, "
          f"false alerts {control['false_alerts']}", flush=True)

    print("fleetbench: two-tier taint transport", flush=True)
    two_tier = two_tier_experiment(clean=4, attacks=2, proxy_workers=2,
                                   seed=seed, engine=engine)
    print(f"  tagged: {two_tier['tagged']['tier2']['detected_h2']} H2 "
          f"detections, leaked={two_tier['tagged']['tier2']['secret_leaked']}"
          f" | control: {two_tier['control']['tier2']['detected_h2']} "
          f"detections, leaked="
          f"{two_tier['control']['tier2']['secret_leaked']} | "
          f"proof={two_tier['proof']}", flush=True)

    print("fleetbench: reproducibility", flush=True)
    repro = reproducibility_run(2, requests=min(requests, 8), seed=seed,
                                engine=engine)
    print(f"  rerun identical: {repro['rerun_identical']}, "
          f"multiprocessing identical: {repro['processes_identical']}",
          flush=True)

    return {
        "config": {
            "seed": seed,
            "engine": engine,
            "quick": quick,
            "requests": requests,
            "python": sys.version.split()[0],
        },
        "scaling": scaling,
        "attack_mix": mix,
        "clean_control": control,
        "two_tier": two_tier,
        "reproducibility": repro,
    }


def gate(report: Dict) -> int:
    """Check the CI gate conditions; returns a process exit code."""
    failures = []
    quick = report["config"]["quick"]
    scaling = report["scaling"]
    threshold = 1.6 if quick else 2.5
    if scaling["scaling"] < threshold:
        failures.append(
            f"scaling {scaling['scaling']:.2f}x at "
            f"{scaling['target_workers']} workers < {threshold}x")
    mix = report["attack_mix"]
    if mix["detection_rate"] < 1.0:
        failures.append(f"attack detection {mix['detection_rate']:.2f} < 1.0")
    if not mix["exact"]:
        failures.append("attack mix was not exact")
    if not report["clean_control"]["clean"]:
        failures.append(
            f"{report['clean_control']['false_alerts']} false alert(s) "
            "on clean traffic")
    if not report["two_tier"]["proof"]:
        failures.append("two-tier taint-transport proof failed")
    repro = report["reproducibility"]
    if not repro["rerun_identical"]:
        failures.append("re-run digest diverged at fixed seed")
    if not repro["processes_identical"]:
        failures.append("multiprocessing digest diverged from in-process")
    for failure in failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = bench_parser("repro.harness.fleetbench", __doc__,
                          output="BENCH_fleet.json")
    parser.add_argument("--requests", type=int, default=None,
                        help="scaling batch size (default: 32, quick: 12)")
    args = parser.parse_args(argv)

    requests = args.requests
    if requests is None:
        requests = 12 if args.quick else 32
    report = run_suite(args.quick, args.seed, args.engine, requests)
    write_report(report, args.output)
    if args.gate:
        return gate(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
