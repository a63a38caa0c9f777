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
from repro.compiler.instrument import ShiftOptions
from repro.harness.runners import build_web_machine
from repro.resil.inject import run_campaign

#: The vulnerable server must run strict (default pointer policy):
#: the planted bugs are exactly the corrupted-address loads L1 exists
#: to catch.
ATTACK_OPTIONS = ShiftOptions(granularity=1)

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
    machine = build_web_machine(
        "resil", ATTACK_OPTIONS,
        engine_mode="recover",
        recover_watchdog=ATTACK_WATCHDOG,
        engine=engine,
        adaptive=adaptive,
    )
    attacks = (overflow_request(), traversal_request(), runaway_request())
    expected_reasons = ("alert", "alert", "runaway")
    # Interleave: clean, attack, clean, attack, ... clean.
    for i in range(clean_requests):
        machine.net.add_request(make_request(4))
        if i < len(attacks):
            machine.net.add_request(attacks[i])
    served = machine.run(max_instructions=1_000_000_000)

    sup = machine.resil
    clean_ok = served == clean_requests and all(
        bytes(c.outbound).startswith(b"HTTP/1.0 200")
        for c in machine.net.completed)
    reasons = tuple(i.reason for i in sup.incidents)
    exact = (clean_ok
             and len(machine.net.quarantined) == len(attacks)
             and reasons == expected_reasons)
    adaptive_stats = None
    if machine.adaptive is not None:
        adaptive_stats = {
            "switches_to_fast": machine.adaptive.switches_to_fast,
            "switches_to_track": machine.adaptive.switches_to_track,
            "final_mode": machine.adaptive.mode,
        }
    return {
        "engine": engine,
        "adaptive": adaptive,
        "adaptive_stats": adaptive_stats,
        "clean_requests": clean_requests,
        "attacks": len(attacks),
        "served": served,
        "quarantined": len(machine.net.quarantined),
        "incidents": [
            {"request": i.request_index, "reason": i.reason,
             "policy": i.policy_id}
            for i in sup.incidents
        ],
        "checkpoints": sup.checkpoints_taken,
        "exact": exact,
    }


def run_suite(quick: bool, seed: int) -> Dict:
    """Campaign + attack mix; returns the report body."""
    print("resilbench: fault-injection campaign", flush=True)
    campaign = run_campaign(seed=seed, quick=quick)
    for kind, summary in campaign["kinds"].items():
        rate = summary.get("detection_rate")
        shown = f"detection {rate:.2f}" if rate is not None else "no gate"
        print(f"  {kind:14s} {summary['trials']} trials, {shown}", flush=True)
    print("resilbench: attack-mix webserver", flush=True)
    mix = attack_mix()
    print(f"  served {mix['served']}/{mix['clean_requests']} clean, "
          f"quarantined {mix['quarantined']}/{mix['attacks']} attacks, "
          f"exact={mix['exact']}", flush=True)
    return {"campaign": campaign, "attack_mix": mix}
