"""Resilience benchmark: fault-injection campaign + attack-mix server.

Two experiments, one report (``BENCH_resil.json``):

1. **Fault-injection campaign** (:mod:`repro.resil.inject`): seeded,
   deterministic injections — taint-tag flips into a victim kernel,
   NaT drops into SPEC kernels, transient device errors and truncated
   reads — with per-kind detection/recovery rates.  Every workload also
   runs uninjected as a control; a control that alerts is a false
   positive.
2. **Attack-mix webserver**: the deliberately vulnerable server
   (:data:`repro.apps.webserver.RESIL_WEBSERVER_SOURCE`) in ``recover``
   mode, fed interleaved clean requests and attacks (buffer overflow,
   directory traversal, and a watchdog-caught infinite retry loop).
   The server must answer every clean request and quarantine every
   attack without terminating early.

Run and gated as the ``resil`` suite of :mod:`repro.harness.suites`,
whose gate table holds the conditions::

    PYTHONPATH=src python -m repro.harness.suites resil --quick --gate
"""

from __future__ import annotations

from typing import Dict

from repro.apps.webserver import (
    make_request,
    overflow_request,
    runaway_request,
    traversal_request,
)
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet.driver import FleetConfig
from repro.harness.runners import incident_rows, serve_requests, switch_stats
from repro.resil.inject import run_campaign

#: Per-request instruction budget for the attack mix.  A clean request
#: completes in well under 100k instructions; the retry-loop attack
#: never completes at all.
ATTACK_WATCHDOG = 2_000_000


def attack_mix(engine: str = "predecoded", clean_requests: int = 6,
               adaptive: str = "none") -> Dict:
    """Run the attack-mix server experiment; returns the report entry.

    ``adaptive`` builds the same vulnerable server dual-version (see
    :mod:`repro.adaptive`); adaptivebench uses it to prove on-demand
    tracking quarantines the identical attack set.
    """
    attacks = (overflow_request(), traversal_request(), runaway_request())
    expected_reasons = ("alert", "alert", "runaway")
    # Interleave: clean, attack, clean, attack, ... clean.
    requests = []
    for i in range(clean_requests):
        requests.append((make_request(4), None))
        if i < len(attacks):
            requests.append((attacks[i], None))
    # The vulnerable server runs strict (BYTE_LEVEL's default pointer
    # policy): the planted bugs are exactly the corrupted-address loads
    # L1 exists to catch.
    summary, _machine = serve_requests(FleetConfig(
        variant="resil", options=BYTE_LEVEL,
        recover_watchdog=ATTACK_WATCHDOG,
        engine=engine,
        adaptive=adaptive,
    ), requests)
    metrics = summary["metrics"]
    served = summary["served"]
    quarantined = metrics["net.quarantined"]
    incidents = incident_rows(summary)
    clean_ok = served == clean_requests and all(
        r.startswith(b"HTTP/1.0 200") for r in summary["responses"])
    exact = (clean_ok
             and quarantined == len(attacks)
             and tuple(i["reason"] for i in incidents) == expected_reasons)
    return {
        "engine": engine,
        "adaptive": adaptive,
        "adaptive_stats": switch_stats(metrics),
        "clean_requests": clean_requests,
        "attacks": len(attacks),
        "served": served,
        "quarantined": quarantined,
        "incidents": incidents,
        "checkpoints": metrics["resil.capture_count"],
        "exact": exact,
    }


def run_suite(quick: bool, seed: int) -> Dict:
    """Campaign + attack mix; returns the report body."""
    return {"campaign": run_campaign(seed=seed, quick=quick),
            "attack_mix": attack_mix()}
