"""Fleet execution: N worker Machines behind one frontend.

Two drivers share one worker implementation:

* **in-process** (default): workers run sequentially in this process.
  Simulated time still models the fleet as parallel hardware — the
  fleet's simulated duration is the *maximum* worker cycle count, since
  real workers run concurrently — while staying single-threaded and
  bit-deterministic, which is what the tests and the CI gate use.
* **processes** (``processes=True``): each worker owns its Machine in
  its own OS process, on the one process runtime,
  :class:`repro.fleet.supervised.SupervisedFleet`.  Routing happens up
  front in the parent with a seeded frontend and each worker receives
  its whole batch as one message, so the request->worker assignment —
  and hence every worker's simulated execution — is identical to the
  in-process driver no matter how the host schedules the processes.

Workers default to ``engine_mode="recover"``: a worker that catches an
attack rolls back via :mod:`repro.resil` and keeps serving (it stays in
rotation, the request is quarantined).  A worker that dies anyway —
alert in ``raise`` mode, unrecoverable fault — is ejected, and the
in-process driver re-routes its unserved requests to workers that have
not yet run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.instrument import ShiftOptions
from repro.fleet.frontend import FleetFrontend, Request
from repro.fleet.wire import TaggedMessage
from repro.runtime.machine import Machine, MachineSpec

#: Default per-worker instruction budget.
MAX_INSTRUCTIONS = 1_000_000_000


@dataclass(frozen=True)
class FleetConfig(MachineSpec):
    """A worker's machine spec plus the web app and fleet fields.

    Picklable: process workers receive it whole.  Workers default to
    recover mode with a 5M-instruction watchdog; ``policy_config``
    defaults to the web server's policy.
    """

    engine_mode: str = "recover"
    recover_watchdog: Optional[int] = 5_000_000
    #: A :data:`repro.harness.runners.WEB_VARIANTS` name.
    variant: str = "standard"
    #: Instrumentation; None is ``PERF_OPTIONS["byte"]``.
    options: Optional[ShiftOptions] = None
    #: File sizes of the default document root (``make_site``).
    sizes: Tuple[int, ...] = (4,)
    #: The document root, in place of the one built from ``sizes``.
    files: Optional[Dict[str, bytes]] = None
    #: Record outbound taint flags on every connection (proxy tiers set
    #: this so responses can leave as TaggedMessages).
    capture_taint: bool = False
    max_instructions: int = MAX_INSTRUCTIONS

    def __post_init__(self) -> None:
        # Checked here, in the process that builds the config, rather
        # than in build_worker inside each spawned worker.
        from repro.harness.runners import WEB_VARIANTS

        super().__post_init__()
        if self.variant not in WEB_VARIANTS:
            raise ValueError(f"unknown web variant {self.variant!r}; "
                             f"expected one of {tuple(WEB_VARIANTS)}")


#: A request as shipped to a worker: (payload, packed tags or None).
EncodedRequest = Tuple[bytes, Optional[bytes]]


def encode_request(request: Request) -> EncodedRequest:
    """Normalise a raw-bytes or TaggedMessage request for a worker."""
    if isinstance(request, TaggedMessage):
        return (request.payload, request.tags)
    return (bytes(request), None)


def build_worker(config: FleetConfig, worker_id: Optional[str] = None):
    """Build one web-serving Machine from a fleet configuration.

    ``worker_id`` becomes the machine id; without one the machine gets
    an automatic id.
    """
    from repro.apps.webserver import make_site
    from repro.harness.runners import (PERF_OPTIONS, compiled_webserver,
                                       webserver_policy)

    compiled = compiled_webserver(
        config.options if config.options is not None else PERF_OPTIONS["byte"],
        config.variant, adaptive=config.adaptive != "none")
    if config.policy_config is None:
        config = replace(config, policy_config=webserver_policy())
    files = config.files if config.files is not None \
        else make_site(tuple(config.sizes))
    return Machine(compiled, config, files=files, machine_id=worker_id)


def run_worker(config: FleetConfig, worker_id: Optional[str],
               requests: Sequence[EncodedRequest]) -> Tuple[Dict, Machine]:
    """Serve routed requests on one fresh worker; (summary, machine).

    The only code that queues a request list on a worker and runs it.
    The summary is the one record of the run, a plain picklable dict
    (the process runtime ships only the summary): ``served`` (None when
    the worker died), ``error`` (None, or the alert or fault that
    killed it), ``alerts``, ``incidents``, ``unserved`` (requests still
    queued), ``responses`` and the machine's ``metrics``, which hold
    every counter under its catalogue name (``cpu.cycles``,
    ``net.quarantined``, ``adaptive.spec.commits``, ...).  Without a
    ``worker_id`` the machine gets an automatic id.
    """
    from repro.cpu.faults import Fault
    from repro.taint.engine import SecurityAlert

    machine = build_worker(config, worker_id)
    worker_id = machine.machine_id
    for payload, tags in requests:
        machine.net.add_request(payload, taint_mask=tags,
                                capture_taint=config.capture_taint)
    served: Optional[int] = None
    error = None
    try:
        served = machine.run(max_instructions=config.max_instructions)
    except SecurityAlert as exc:
        error = {"type": "alert", "message": str(exc),
                 "policy_id": exc.policy_id}
    except Fault as exc:
        error = {"type": "fault", "message": str(exc), "policy_id": ""}
    summary = {
        "worker_id": worker_id,
        "served": served,
        "error": error,
        "alerts": [
            {"worker": worker_id, "policy_id": a.policy_id, "pc": a.pc,
             "message": a.message, "context": a.context,
             "origins": [o.describe() for o in a.origins]}
            for a in machine.alerts
        ],
        "incidents": _incident_dicts(machine, worker_id),
        "unserved": [
            (bytes(c.inbound), c.taint_mask) for c in machine.net.pending
        ],
        "responses": [bytes(c.outbound) for c in machine.net.completed],
        "metrics": machine.metrics(),
    }
    return summary, machine


def request_outcome(summary: Dict) -> str:
    """A one-request summary's verdict: fatal, quarantined, served or noop."""
    if summary["error"] is not None:
        return "fatal"
    if summary["metrics"]["net.quarantined"]:
        return "quarantined"
    return "served" if summary["served"] else "noop"


def migrate_worker(config: FleetConfig, source_machine, new_worker_id: str,
                   *, at_request: Optional[int] = None):
    """Move a worker's live session onto a freshly built machine.

    Packs the source (base + COW deltas, taint bitmap, provenance, fd
    and device queues — see :mod:`repro.resil.migrate`) and rehydrates
    the blob on a new worker built from the same fleet configuration.
    Returns ``(blob, target_machine)``; the caller runs the target to
    continue serving the migrated pending queue.

    ``at_request`` selects the chain checkpoint at which ``Connection``
    with that arrival index was at the head of the pending queue —
    "migrate the session just before request N" — instead of the
    source's current state.
    """
    from repro.resil.migrate import pack_worker, rehydrate_worker

    checkpoint = None
    if at_request is not None:
        sup = source_machine.resil
        if sup is None:
            raise ValueError(
                "at_request needs a supervised (recover-mode) source")
        for node in sup.chain:
            if node.pending_head_index == at_request:
                checkpoint = node
                break
        else:
            raise ValueError(
                f"no chain checkpoint has request {at_request} pending")
    blob = pack_worker(source_machine, checkpoint)
    target = build_worker(config, new_worker_id)
    rehydrate_worker(blob, target)
    return blob, target


def _incident_dicts(machine, worker_id: str) -> List[Dict]:
    sup = machine.resil
    if sup is None:
        return []
    alerts_by_count = {a.instruction_count: a for a in machine.alerts}
    out = []
    for inc in sup.incidents:
        alert = alerts_by_count.get(inc.instruction_count)
        out.append({
            "worker": inc.worker or worker_id,
            "request_index": inc.request_index,
            "reason": inc.reason,
            "policy_id": inc.policy_id,
            "message": inc.message,
            "pc": inc.pc,
            "instruction_count": inc.instruction_count,
            "origins": ([o.describe() for o in alert.origins]
                        if alert is not None else []),
        })
    return out


@dataclass
class FleetResult:
    """Outcome of one fleet run."""

    workers: List[Dict]
    routed: Dict[str, int]
    requests: int
    #: Requests the frontend refused outright (all queues full).
    dropped: int
    #: Requests that spilled past their first-choice worker.
    spilled: int
    #: Requests re-routed after a worker ejection.
    rerouted: int = 0
    #: Requests that never ran (owner ejected, no survivor left to run).
    unserved: int = 0
    wall_seconds: float = 0.0
    machines: Dict[str, object] = field(default_factory=dict)

    @property
    def served(self) -> int:
        """Clean requests answered across the fleet."""
        return sum(w["served"] or 0 for w in self.workers)

    @property
    def quarantined(self) -> int:
        """Requests quarantined by worker-level rollback recovery."""
        return sum(w["metrics"]["net.quarantined"] for w in self.workers)

    @property
    def sim_cycles(self) -> float:
        """Fleet simulated duration: the slowest worker's cycles.

        Workers are independent machines running concurrently, so fleet
        wall-time-in-simulation is a max, not a sum — this is the number
        the 1->N throughput-scaling claim is measured against.
        """
        return max((w["metrics"]["cpu.cycles"] for w in self.workers),
                   default=0.0)

    @property
    def sim_throughput(self) -> float:
        """Served requests per billion simulated cycles."""
        cycles = self.sim_cycles
        return self.served / (cycles / 1e9) if cycles else 0.0

    @property
    def ejected(self) -> List[str]:
        """Ids of workers removed from rotation."""
        return [w["worker_id"] for w in self.workers
                if w["error"] is not None]

    @property
    def utilization(self) -> Dict[str, float]:
        """Per-worker busy fraction: own cycles / slowest worker's cycles.

        The fleet's simulated duration is the slowest worker's cycle
        count, so a worker at 1.0 ran the whole time and a worker at
        0.5 sat idle for half the fleet run — the imbalance fleetbench
        and servebench compare.
        """
        sim = self.sim_cycles
        if not sim:
            return {w["worker_id"]: 0.0 for w in self.workers}
        return {w["worker_id"]: w["metrics"]["cpu.cycles"] / sim
                for w in self.workers}

    def metrics(self):
        """Merged fleet-level metrics (see repro.fleet.observe)."""
        from repro.fleet.observe import merge_worker_metrics

        return merge_worker_metrics(self)

    def incidents(self) -> List[Dict]:
        """Every worker incident, ordered by worker then occurrence."""
        out: List[Dict] = []
        for worker in self.workers:
            out.extend(worker["incidents"])
        return out

    def digest(self) -> str:
        """Deterministic fingerprint of the fleet's observable outcome.

        Two runs with the same seed must produce the same digest — this
        is the bit-reproducibility check fleetbench gates on.
        """
        import hashlib
        import json

        canonical = [
            {
                "worker": w["worker_id"],
                "served": w["served"],
                "cycles": w["metrics"]["cpu.cycles"],
                "instructions": w["metrics"]["cpu.instructions"],
                "quarantined": w["metrics"]["net.quarantined"],
                "responses": [hashlib.sha256(r).hexdigest()
                              for r in w["responses"]],
            }
            for w in sorted(self.workers, key=lambda w: w["worker_id"])
        ]
        blob = json.dumps(canonical, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class FleetDriver:
    """Routes a batch of requests and executes the worker fleet."""

    def __init__(self, config: Optional[FleetConfig] = None, *,
                 workers: int = 2, routing: str = "round_robin",
                 seed: int = 0, queue_capacity: Optional[int] = None) -> None:
        if workers <= 0:
            raise ValueError("fleet needs at least one worker")
        self.config = config or FleetConfig()
        self.worker_ids = [f"w{i}" for i in range(workers)]
        self.routing = routing
        self.seed = seed
        self.queue_capacity = queue_capacity

    def _route(self, requests: Sequence[Request]) -> FleetFrontend:
        frontend = FleetFrontend(
            self.worker_ids, policy=self.routing, seed=self.seed,
            queue_capacity=self.queue_capacity)
        frontend.submit_all(requests)
        return frontend

    def run(self, requests: Sequence[Request], *,
            processes: bool = False) -> FleetResult:
        """Route and execute; ``processes=True`` runs one process per worker."""
        frontend = self._route(requests)
        started = time.perf_counter()
        if processes:
            from repro.fleet.supervised import SupervisedFleet

            batches = {wid: [encode_request(r)
                             for r in frontend.slots[wid].queue]
                       for wid in self.worker_ids}
            summaries = SupervisedFleet(
                self.config, workers=len(self.worker_ids), seed=self.seed,
                routing=self.routing).run_batches(batches)
            result = FleetResult(
                workers=summaries,
                routed={wid: len(batch) for wid, batch in batches.items()},
                requests=0, dropped=frontend.dropped,
                spilled=frontend.spilled,
                unserved=sum(len(s["unserved"]) for s in summaries
                             if s["error"] is not None))
        else:
            result = self._run_inline(frontend)
        result.requests = len(requests)
        result.wall_seconds = time.perf_counter() - started
        return result

    def _run_inline(self, frontend: FleetFrontend) -> FleetResult:
        summaries: List[Dict] = []
        machines: Dict[str, object] = {}
        rerouted = 0
        unserved = 0
        pending_ids = list(self.worker_ids)
        routed = {wid: len(frontend.slots[wid].queue)
                  for wid in self.worker_ids}
        while pending_ids:
            wid = pending_ids.pop(0)
            batch = [encode_request(r) for r in frontend.slots[wid].queue]
            frontend.slots[wid].queue.clear()
            summary, machine = run_worker(self.config, wid, batch)
            summaries.append(summary)
            machines[wid] = machine
            if summary["error"] is None:
                continue
            # Health ejection: hand the dead worker's unserved requests
            # to workers that have not run yet (the survivors).
            frontend.eject(wid, summary["error"]["message"])
            orphans = summary["unserved"]
            survivors = [s for s in pending_ids if frontend.slots[s].healthy]
            if not survivors:
                unserved += len(orphans)
                continue
            for i, (payload, tags) in enumerate(orphans):
                target = survivors[i % len(survivors)]
                frontend.slots[target].queue.append(
                    TaggedMessage(payload=payload, tags=tags)
                    if tags is not None else payload)
                rerouted += 1
        return FleetResult(
            workers=summaries, routed=routed, requests=0,
            dropped=frontend.dropped, spilled=frontend.spilled,
            rerouted=rerouted, unserved=unserved, machines=machines)
