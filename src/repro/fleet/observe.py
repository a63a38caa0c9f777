"""Fleet-level observability: merged metrics and incident reports.

Each worker Machine already produces a full metrics snapshot
(:func:`repro.obs.metrics.collect_machine`) and, in ``recover`` mode, a
list of quarantine incidents.  This module folds those per-worker views
into one fleet view:

* :func:`merge_metric_dicts` — fold worker metric snapshots as each
  name's :data:`~repro.obs.metrics.CATALOGUE` row says: counts sum,
  flags and configuration take the max, ratios such as cache miss
  rates are recomputed from their summed inputs.
* :func:`merge_worker_metrics` — the merged snapshot plus ``fleet.*``
  (worker counts, routing spill/drop, simulated cycles, per-worker
  utilization).
* :func:`frontend_metrics` — a live :class:`FleetFrontend`'s routing
  counters (``frontend.dropped`` spill-then-drop rejections,
  ``frontend.spilled``) and per-worker queue depths.
* :func:`incident_report` / :func:`render_incidents` — every quarantine
  and ejection across the fleet, each naming the worker, the request
  index, the tripped policy and the taint-origin chain that fed it.

The metric collectors return plain ``{name: value}`` dicts;
:func:`repro.obs.metrics.render` prints them with units.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.metrics import MAX, SUM, Number, row


def merge_metric_dicts(snapshots: List[Dict[str, Number]]) -> Dict[str, Number]:
    """Fold per-worker ``machine.metrics()`` snapshots into one, each
    name as its catalogue row says."""
    merged: Dict[str, Number] = {}
    ratios = []
    for snap in snapshots:
        for name, value in snap.items():
            how = row(name)[1]
            if how == SUM:
                merged[name] = merged.get(name, 0) + value
            elif how == MAX:
                merged[name] = max(merged.get(name, value), value)
            elif how is None:
                raise ValueError(f"{name!r} is not a worker metric")
            elif name not in merged:
                merged[name] = 0.0
                ratios.append((name, how))
    for name, (num, den) in ratios:
        merged[name] = (round(merged[num] / merged[den], 6)
                        if merged[den] else 0.0)
    return merged


def merge_worker_metrics(result) -> Dict[str, Number]:
    """The fleet metrics of one FleetResult: merged workers plus ``fleet.*``."""
    flat = merge_metric_dicts([w["metrics"] for w in result.workers])
    flat.update({
        "fleet.workers": len(result.workers),
        "fleet.workers_ejected": len(result.ejected),
        "fleet.requests": result.requests,
        "fleet.served": result.served,
        "fleet.quarantined": result.quarantined,
        "fleet.spilled": result.spilled,
        "fleet.dropped_frontend": result.dropped,
        "fleet.rerouted": result.rerouted,
        "fleet.unserved": result.unserved,
        "fleet.sim_cycles": result.sim_cycles,
        "fleet.sim_throughput": round(result.sim_throughput, 6),
    })
    if result.wall_seconds:
        flat["fleet.wall_seconds"] = round(result.wall_seconds, 6)
    for wid, busy in sorted(result.utilization.items()):
        flat[f"fleet.utilization.{wid}"] = round(busy, 6)
    return flat


def frontend_metrics(frontend) -> Dict[str, Number]:
    """Routing-layer metrics of one live :class:`FleetFrontend`.

    ``frontend.dropped`` counts spill-then-drop rejections (every
    routable queue full), ``frontend.spilled`` requests pushed past
    their first-choice worker; per-worker ``frontend.depth.*`` come
    from the public :meth:`FleetFrontend.depths` snapshot.
    """
    flat: Dict[str, Number] = {
        "frontend.dropped": frontend.dropped,
        "frontend.spilled": frontend.spilled,
        "frontend.rejected": frontend.rejected,
        "fleet.retransmits": frontend.retransmits,
        "fleet.frame_rejects": frontend.frame_rejects,
        "fleet.frames_lost": frontend.frames_lost,
        "frontend.queued": frontend.total_queued,
        "frontend.workers_routable": frontend.routable_count,
        "frontend.workers_healthy": frontend.healthy_count,
    }
    for wid, depth in sorted(frontend.depths().items()):
        flat[f"frontend.depth.{wid}"] = depth["queued"]
    return flat


def incident_report(result) -> Dict:
    """Structured fleet incident report for one FleetResult.

    ``incidents`` lists every quarantine with the worker that rolled
    back, the request it quarantined, the policy that fired and the
    taint-origin chain behind it; ``ejections`` lists workers removed
    from rotation and why.
    """
    return {
        "incidents": result.incidents(),
        "ejections": [
            {"worker": w["worker_id"],
             "error": w["error"],
             "unserved_requests": len(w["unserved"])}
            for w in result.workers if w["error"] is not None
        ],
        "alerts": [a for w in result.workers for a in w["alerts"]],
        "summary": {
            "workers": len(result.workers),
            "ejected": result.ejected,
            "requests": result.requests,
            "served": result.served,
            "quarantined": result.quarantined,
            "rerouted": result.rerouted,
            "unserved": result.unserved,
        },
    }


def render_incidents(result) -> str:
    """Human-readable fleet incident log, one line per event."""
    report = incident_report(result)
    lines: List[str] = []
    for inc in report["incidents"]:
        origin = "; ".join(inc["origins"]) or "no recorded origin"
        policy = f" [{inc['policy_id']}]" if inc["policy_id"] else ""
        lines.append(
            f"{inc['worker']}: quarantined request #{inc['request_index']} "
            f"({inc['reason']}{policy}) <- {origin}")
    for ej in report["ejections"]:
        err = ej["error"] or {}
        lines.append(
            f"{ej['worker']}: EJECTED ({err.get('type', '?')}: "
            f"{err.get('message', '')}), "
            f"{ej['unserved_requests']} request(s) orphaned")
    if not lines:
        lines.append("fleet healthy: no incidents")
    return "\n".join(lines)
