"""The two-tier experiment: cross-machine taint, end to end.

Tier 1 is a small fleet of reverse proxies (``FLEET_PROXY_SOURCE``):
each accepts requests off the untrusted network (so every request byte
is tainted on ingress), validates the request line, and forwards the
raw bytes.  The fleet layer captures each forwarded response *with its
taint* (``capture_taint=True``), wraps it in a
:class:`~repro.fleet.wire.TaggedMessage`, serialises it to the binary
frame, and carries it to tier 2 — the actual byte string crosses the
"wire".

Tier 2 is the standard file server running the *backend* policy: its
own network ingress is trusted (the proxy terminated the trust
boundary), so the only way a backend byte can be tainted is if the tag
arrived in the frame.  A directory traversal injected at tier 1 is
therefore caught by policy H2 at tier 2 **only** because the taint was
transported.

The control run proves the mechanism: same requests, same machines,
tags stripped from the frames.  The traversal sails through H2 (no
taint, no check), the backend happily serves ``/etc/secret``, and the
secret bytes appear in the response — zero alerts, one leak.  Detection
with tags + leak without tags = the wire transport is load-bearing.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.fleet.driver import FleetConfig, FleetDriver, encode_request
from repro.fleet.wire import TaggedMessage

#: Planted outside the backend's document root; served only if the
#: traversal goes undetected (the control run proves it would).
SECRET_PATH = "/etc/secret"
SECRET = b"TOP-SECRET: backend credential material\n"

#: Per-request instruction budget for both tiers.
TIER_WATCHDOG = 2_000_000


def backend_site(sizes=(4,)) -> Dict[str, bytes]:
    """Backend document root plus the out-of-root secret file."""
    from repro.apps.webserver import make_site

    files = make_site(tuple(sizes))
    files[SECRET_PATH] = SECRET
    return files


def request_mix(clean: int, attacks: int) -> List[bytes]:
    """Deterministic interleave of clean requests and traversals."""
    from repro.apps.webserver import make_request, traversal_request

    out: List[bytes] = []
    for i in range(max(clean, attacks)):
        if i < clean:
            out.append(make_request(4))
        if i < attacks:
            out.append(traversal_request())
    return out


def run_two_tier(*, clean: int = 4, attacks: int = 1,
                 proxy_workers: int = 2, routing: str = "round_robin",
                 seed: int = 0, engine: str = "predecoded",
                 transport_tags: bool = True,
                 adaptive: str = "none",
                 options=None) -> Dict:
    """Run the proxy fleet, ship frames to the backend, run the backend.

    With ``transport_tags=False`` the frames are re-issued with an
    all-clear tag vector (the payload bytes are identical) — the
    control arm that shows what the backend misses without the wire
    taint.  ``adaptive`` selects the backend tier's execution mode
    (one of :data:`repro.runtime.machine.ADAPTIVE_MODES`); under
    ``"speculate"`` the backend serves requests on the fast copy with
    sends deferred to epoch commit, so a rolled-back epoch must leave
    zero phantom bytes on the wire.
    """
    from repro.harness.runners import (backend_policy, serve_requests,
                                       webserver_policy)

    # -- tier 1: the proxy fleet ----------------------------------------
    tier1 = FleetDriver(
        FleetConfig(variant="proxy", options=options,
                    policy_config=webserver_policy(), engine=engine,
                    engine_mode="raise", capture_taint=True),
        workers=proxy_workers, routing=routing, seed=seed)
    requests = request_mix(clean, attacks)
    result1 = tier1.run(requests)

    # -- the wire: capture, frame, decode --------------------------------
    frames: List[bytes] = []
    rejected = 0
    for wid in tier1.worker_ids:
        machine = result1.machines[wid]
        for conn in machine.net.completed:
            if not bytes(conn.outbound).startswith(b"GET "):
                rejected += 1  # proxy answered 400 itself
                continue
            msg = TaggedMessage.capture_response(
                machine, conn, origin=f"tier1:{wid}")
            frames.append(msg.to_bytes())
    messages = [TaggedMessage.from_bytes(frame) for frame in frames]
    if not transport_tags:
        messages = [TaggedMessage(payload=m.payload, request_id=m.request_id,
                                  origin=m.origin) for m in messages]

    # -- tier 2: the backend --------------------------------------------
    summary, _backend = serve_requests(FleetConfig(
        options=options, policy_config=backend_policy(), files=backend_site(),
        engine=engine, recover_watchdog=TIER_WATCHDOG, adaptive=adaptive),
        [encode_request(msg) for msg in messages], "backend")
    metrics = summary["metrics"]
    served = summary["served"]
    responses = summary["responses"]
    incidents = [
        {key: inc[key] for key in
         ("worker", "request_index", "reason", "policy_id", "message")}
        for inc in summary["incidents"]
    ]
    alerts = [a["policy_id"] for a in summary["alerts"]]
    detected = sum(1 for inc in incidents if inc["policy_id"] == "H2")
    leaked = any(SECRET in r for r in responses)
    if transport_tags:
        ok = (detected == attacks
              and len(incidents) == attacks
              and metrics["net.quarantined"] == attacks
              and served == clean
              and not leaked)
    else:
        ok = (not incidents
              and not alerts
              and served == clean + attacks
              and leaked)
    return {
        "transport_tags": transport_tags,
        "clean": clean,
        "attacks": attacks,
        "tier1": {
            "workers": proxy_workers,
            "routing": routing,
            "forwarded": len(frames),
            "rejected": rejected,
            "sim_cycles": result1.sim_cycles,
        },
        "wire": {
            "frames": len(frames),
            "frame_bytes": sum(len(f) for f in frames),
            "tainted_bytes": sum(m.tainted_count for m in messages),
        },
        "tier2": {
            "served": served,
            "quarantined": metrics["net.quarantined"],
            "detected_h2": detected,
            "incidents": incidents,
            "alerts": alerts,
            "secret_leaked": leaked,
            "sim_cycles": metrics["cpu.cycles"],
            "response_digests": [hashlib.sha256(r).hexdigest()
                                 for r in responses],
            "response_bytes": sum(len(r) for r in responses),
            "spec": (None if "adaptive.spec.epochs" not in metrics else {
                name: metrics[f"adaptive.spec.{name}"] for name in (
                    "epochs", "commits", "rollbacks", "deferred_sends",
                    "deferred_bytes")}),
        },
        "ok": ok,
    }


def two_tier_experiment(*, clean: int = 4, attacks: int = 1,
                        proxy_workers: int = 2,
                        routing: str = "round_robin", seed: int = 0,
                        engine: str = "predecoded",
                        options=None) -> Dict:
    """Both arms of the proof: tags transported vs. tags stripped."""
    tagged = run_two_tier(
        clean=clean, attacks=attacks, proxy_workers=proxy_workers,
        routing=routing, seed=seed, engine=engine, transport_tags=True,
        options=options)
    control = run_two_tier(
        clean=clean, attacks=attacks, proxy_workers=proxy_workers,
        routing=routing, seed=seed, engine=engine, transport_tags=False,
        options=options)
    return {
        "tagged": tagged,
        "control": control,
        "proof": bool(tagged["ok"] and control["ok"]),
    }
