"""Event-driven serving: a simulated clock over real worker budgets.

The serving loop interleaves two event streams on one simulated clock:
open-loop *arrivals* from :mod:`repro.serve.loadgen`, and *completions*
from workers whose per-request cycle budgets are **measured, not
modelled**: every distinct payload is executed once, for real, on a
recover-mode worker Machine via :func:`repro.fleet.driver.run_worker`,
and the cycles it consumed (plus its security outcome — served,
quarantined, fatal) become the budget every simulated dispatch of that
payload replays.  The simulation is therefore wall-clock-free and
bit-reproducible, while its service times and its detection results
are the DIFT machine's own.

Requests queue at the frontend when every routable worker is busy —
each request records its enqueue / dispatch / complete stamps, and the
run emits p50/p95/p99 latency, a queue-depth time series, and the
autoscaler's worker-count trace.

For *real* (non-simulated) measurements the same workload runs on OS
processes through :meth:`repro.fleet.supervised.SupervisedFleet.run`,
which routes by the same affinity key and reports the same
:class:`RequestRecord` rows in wall seconds.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.journal import RequestJournal
from repro.chaos.replica import RecoveryPolicy, Replica, ReplicaStore
from repro.chaos.schedule import ChaosSchedule
from repro.fleet.driver import FleetConfig, run_worker
from repro.fleet.frontend import FleetFrontend
from repro.fleet.observe import frontend_metrics
from repro.fleet.wire import TaggedMessage, WireFormatError
from repro.resil.transient import RetryPolicy
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.loadgen import ServeRequest

__all__ = [
    "RequestRecord",
    "ServeResult",
    "ServeSim",
    "ServiceCost",
    "ServiceModel",
    "SimClock",
    "percentile",
]


class SimClock:
    """A deterministic event queue over simulated cycles."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, str, object]] = []
        self._seq = 0

    def schedule(self, when: float, kind: str, data: object = None) -> None:
        """Enqueue an event; ties break by insertion order."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past "
                             f"({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._seq, kind, data))
        self._seq += 1

    def pop(self) -> Tuple[str, object]:
        """Advance to and return the next event."""
        when, _seq, kind, data = heapq.heappop(self._heap)
        self.now = when
        return kind, data

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# -- measured service model ---------------------------------------------


@dataclass(frozen=True)
class ServiceCost:
    """What one real execution of a payload cost and decided."""

    cycles: float  # marginal cycles beyond worker boot
    outcome: str  # 'served' | 'quarantined' | 'fatal' | 'noop'
    policy_ids: Tuple[str, ...] = ()
    alerts: int = 0
    response_sha: str = ""
    error: str = ""
    #: repro.spec activity during the measurement (speculate workers).
    spec_commits: int = 0
    spec_rollbacks: int = 0

    @property
    def fatal(self) -> bool:
        """True when the worker did not survive the request."""
        return self.outcome == "fatal"


class ServiceModel:
    """Per-payload cycle budgets measured on a real worker Machine.

    One instance is shared across every sweep point of a bench run, so
    each distinct payload is executed exactly once no matter how many
    thousands of simulated requests replay it.  ``boot_cycles`` — a
    worker Machine brought up with an empty queue — doubles as the
    autoscaler's spawn delay for new workers.

    A quarantined request's budget is approximated by the instructions
    it retired before the supervisor rolled it back (rollback restores
    the cycle counters, so the post-run counter alone would price an
    absorbed attack at zero).
    """

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config or FleetConfig()
        self._cache: Dict[Tuple[bytes, Optional[bytes]], ServiceCost] = {}
        self._boot: Optional[Dict] = None
        self._migration: Optional[Tuple[int, float]] = None

    def _boot_summary(self) -> Dict:
        if self._boot is None:
            summary, _machine = run_worker(self.config, "svc-boot", [])
            self._boot = summary
        return self._boot

    @property
    def boot_cycles(self) -> float:
        """Cycles to bring a worker up before it can serve (spawn cost)."""
        return float(self._boot_summary()["cycles"])

    @property
    def measured(self) -> int:
        """Distinct payloads executed so far."""
        return len(self._cache)

    def _measure_migration(self) -> Tuple[int, float]:
        """(blob bytes, cycles) to move one worker, from a real pack.

        Packs an actual booted worker via :mod:`repro.resil.migrate`
        and prices shipping the blob at network device rates — the same
        cost model every simulated byte already pays.
        """
        if self._migration is None:
            from repro.resil.migrate import pack_worker
            from repro.runtime.devices import DeviceCosts

            _summary, machine = run_worker(self.config, "svc-mig-probe", [])
            blob = pack_worker(machine)
            costs = DeviceCosts()
            self._migration = (
                len(blob), costs.net_base + len(blob) * costs.net_byte)
        return self._migration

    @property
    def migration_blob_bytes(self) -> int:
        """Measured wire size of one packed worker."""
        return self._measure_migration()[0]

    @property
    def migration_cycles(self) -> float:
        """Cycles to pack, ship and rehydrate one worker's state."""
        return self._measure_migration()[1]

    def cost(self, payload: bytes,
             tags: Optional[bytes] = None) -> ServiceCost:
        """The measured budget for one payload (cached)."""
        key = (bytes(payload), tags)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._measure(key[0], tags)
            self._cache[key] = entry
        return entry

    def _measure(self, payload: bytes, tags: Optional[bytes]) -> ServiceCost:
        boot = self._boot_summary()
        summary, _machine = run_worker(self.config, "svc-probe",
                                       [(payload, tags)])
        cycles = max(1.0, float(summary["cycles"]) - float(boot["cycles"]))
        policy_ids = tuple(a["policy_id"] for a in summary["alerts"])
        spec = summary.get("spec") or {}
        spec_commits = spec.get("commits", 0)
        spec_rollbacks = spec.get("rollbacks", 0)
        response_sha = ""
        if summary["responses"]:
            response_sha = hashlib.sha256(
                summary["responses"][0]).hexdigest()
        if summary["error"] is not None:
            return ServiceCost(
                cycles=cycles, outcome="fatal", policy_ids=policy_ids,
                alerts=len(summary["alerts"]),
                error=summary["error"]["message"],
                spec_commits=spec_commits, spec_rollbacks=spec_rollbacks)
        if summary["quarantined"]:
            burned = 0.0
            if summary["incidents"]:
                burned = (summary["incidents"][0]["instruction_count"]
                          - boot["instructions"])
            return ServiceCost(
                cycles=max(cycles, float(burned), 1.0),
                outcome="quarantined", policy_ids=policy_ids,
                alerts=len(summary["alerts"]),
                spec_commits=spec_commits, spec_rollbacks=spec_rollbacks)
        outcome = "served" if summary["served"] else "noop"
        return ServiceCost(
            cycles=cycles, outcome=outcome, policy_ids=policy_ids,
            alerts=len(summary["alerts"]), response_sha=response_sha,
            spec_commits=spec_commits, spec_rollbacks=spec_rollbacks)


# -- per-request bookkeeping --------------------------------------------


@dataclass
class RequestRecord:
    """Lifecycle stamps of one simulated request."""

    index: int
    session: int
    kind: str
    enqueue: float
    worker: str = ""
    dispatch: float = -1.0
    complete: float = -1.0
    service: float = 0.0
    outcome: str = "pending"
    policy_ids: Tuple[str, ...] = ()
    alerts: int = 0
    response_sha: str = ""
    rerouted: bool = False
    #: True when the request changed workers via live migration (its
    #: draining worker shipped it, still queued, inside the state blob).
    migrated: bool = False
    #: repro.spec activity measured for this payload (speculate workers).
    spec_commits: int = 0
    spec_rollbacks: int = 0

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queueing included)."""
        return self.complete - self.enqueue

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for a worker."""
        return self.dispatch - self.enqueue

    def to_dict(self) -> Dict:
        return {
            "index": self.index, "session": self.session,
            "kind": self.kind, "worker": self.worker,
            "enqueue": self.enqueue, "dispatch": self.dispatch,
            "complete": self.complete, "service": self.service,
            "outcome": self.outcome, "policy_ids": list(self.policy_ids),
            "alerts": self.alerts, "response_sha": self.response_sha,
            "rerouted": self.rerouted, "migrated": self.migrated,
            "spec_commits": self.spec_commits,
            "spec_rollbacks": self.spec_rollbacks,
        }


@dataclass
class _SimWorker:
    """Serving-loop state for one (simulated) worker."""

    worker_id: str
    spawned_at: float = 0.0
    available_at: float = 0.0  # boot finishes here
    busy: bool = False
    served: int = 0
    busy_cycles: float = 0.0
    retired_at: Optional[float] = None
    ejected: bool = False
    # -- chaos state ------------------------------------------------------
    #: Bumped on each fail-stop crash; completions scheduled under an
    #: older incarnation are cancelled (the work died with the worker).
    incarnation: int = 0
    crashed: bool = False
    #: Frozen (unresponsive but alive) until this cycle stamp.
    stall_until: float = 0.0
    #: The request currently executing (recovered on crash detection).
    inflight: Optional[ServeRequest] = None
    #: Highest request index completed — the replication watermark.
    completed_mark: int = -1
    since_replicate: int = 0
    #: Quarantine incidents this worker holds (evidence continuity).
    evidence: int = 0


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    records: List[RequestRecord]
    depth_series: List[Dict] = field(default_factory=list)
    scale_events: List[Dict] = field(default_factory=list)
    workers: Dict[str, _SimWorker] = field(default_factory=dict)
    dropped: int = 0
    rerouted: int = 0
    #: Requests moved to another worker by drain-via-migration.
    migrated: int = 0
    frontend: Optional[FleetFrontend] = None
    #: Arrivals refused by admission control (503-style shedding).
    shed: int = 0
    #: Open requests moved to a replacement after a failure.
    replayed: int = 0
    #: Completions from a dead incarnation, cancelled outright.
    stale_completions: int = 0
    #: Response frames undeliverable within one retry budget (the
    #: request re-executed; the journal still completed it once).
    acks_lost: int = 0
    #: Cycles spent waiting out wire retransmit backoff.
    retransmit_cycles: float = 0.0
    chaos_events: List[Dict] = field(default_factory=list)
    recoveries: List[Dict] = field(default_factory=list)
    journal: Optional[RequestJournal] = None
    replica_store: Optional[ReplicaStore] = None

    # -- outcome tallies -------------------------------------------------

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if r.outcome == "served")

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.records if r.outcome == "quarantined")

    @property
    def false_alerts(self) -> int:
        """Alerts raised while handling clean traffic."""
        return sum(r.alerts for r in self.records if r.kind == "clean")

    def attack_detection(self) -> Dict:
        """Detection tally over non-clean requests.

        Requests shed by admission control never reached a worker, so
        they are excluded from the denominator — an explicit 503 is not
        a missed detection (and the chaos gates separately require that
        no *admitted* attack escapes).
        """
        attacks = [r for r in self.records if r.kind != "clean"
                   and r.outcome != "rejected"]
        caught = [r for r in attacks
                  if r.outcome in ("quarantined", "fatal")]
        return {
            "attacks": len(attacks),
            "detected": len(caught),
            "detection_rate": (len(caught) / len(attacks)
                               if attacks else 1.0),
        }

    # -- latency / throughput --------------------------------------------

    def latencies(self, kinds: Optional[Sequence[str]] = None) -> List[float]:
        """Completed-request latencies (optionally filtered by kind)."""
        return [r.latency for r in self.records
                if r.complete >= 0.0
                and (kinds is None or r.kind in kinds)]

    def latency_percentiles(self) -> Dict[str, float]:
        lat = self.latencies()
        return {"p50": percentile(lat, 50.0),
                "p95": percentile(lat, 95.0),
                "p99": percentile(lat, 99.0),
                "mean": sum(lat) / len(lat) if lat else 0.0,
                "max": max(lat) if lat else 0.0}

    @property
    def makespan(self) -> float:
        """First arrival to last completion, in cycles."""
        if not self.records:
            return 0.0
        start = min(r.enqueue for r in self.records)
        end = max((r.complete for r in self.records if r.complete >= 0.0),
                  default=start)
        return end - start

    @property
    def throughput(self) -> float:
        """Served requests per 1e6 cycles of makespan."""
        span = self.makespan
        return self.served / (span / 1e6) if span else 0.0

    @property
    def peak_workers(self) -> int:
        """Most routable workers observed at any depth sample."""
        if not self.depth_series:
            return len([w for w in self.workers.values()
                        if w.retired_at is None and not w.ejected])
        return max(s["routable_workers"] for s in self.depth_series)

    @property
    def max_queue_depth(self) -> int:
        if not self.depth_series:
            return 0
        return max(s["queued"] for s in self.depth_series)

    def worker_trace(self) -> List[Tuple[float, int]]:
        """(time, routable workers) samples — the autoscaler's story."""
        return [(s["time"], s["routable_workers"])
                for s in self.depth_series]

    def utilization(self) -> Dict[str, float]:
        """Per-worker busy fraction over its in-rotation lifetime."""
        out: Dict[str, float] = {}
        span = self.makespan or 1.0
        for wid, worker in self.workers.items():
            end = worker.retired_at if worker.retired_at is not None \
                else (min(r.enqueue for r in self.records) + span
                      if self.records else worker.spawned_at)
            alive = max(end - worker.spawned_at, 1.0)
            out[wid] = min(worker.busy_cycles / alive, 1.0)
        return out

    # -- reproducibility -------------------------------------------------

    def digest(self) -> str:
        """Deterministic fingerprint of the run's observable outcome."""
        canonical = {
            "records": [r.to_dict() for r in self.records],
            "scale_events": self.scale_events,
            "dropped": self.dropped,
            "rerouted": self.rerouted,
            "migrated": self.migrated,
            "shed": self.shed,
            "replayed": self.replayed,
            "chaos_events": self.chaos_events,
            "recoveries": self.recoveries,
        }
        blob = json.dumps(canonical, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def outcome_digest(self) -> str:
        """Fingerprint of *what was served*, not when or by whom.

        Hashes each request's authoritative outcome — index, kind,
        outcome, response digest, alerts, policies — sorted by index,
        with all timing and worker placement excluded.  A chaos run
        that crashed workers, replayed their open requests and
        suppressed zombie duplicates must produce the same outcome
        digest as an uncrashed control run of the same workload; that
        equality is the exactly-once gate of
        ``repro.harness.chaosbench``.  Requests that never completed
        (pending) or were refused before admission (dropped, rejected)
        are excluded — admission differences are gated by their
        explicit counters instead.
        """
        rows = [
            [r.index, r.kind, r.outcome, r.response_sha, r.alerts,
             sorted(r.policy_ids)]
            for r in self.records
            if r.outcome not in ("pending", "dropped", "rejected")
        ]
        rows.sort()
        blob = json.dumps(rows, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def recovery_latency_max(self) -> float:
        """Slowest failure-to-replacement-ready interval, in cycles."""
        return max((rec["recovery_latency"] for rec in self.recoveries),
                   default=0.0)

    def metrics(self) -> Dict[str, float]:
        """``serve.*`` plus the frontend's routing metrics, by name."""
        actions = Counter(e["action"] for e in self.scale_events)
        lat = self.latencies()
        total = sum(lat, 0.0)
        flat = {
            "serve.requests": len(self.records),
            "serve.served": self.served,
            "serve.quarantined": self.quarantined,
            "serve.dropped": self.dropped,
            "serve.rerouted": self.rerouted,
            "serve.migrated": self.migrated,
            "serve.migrations": actions["migrate"],
            "serve.false_alerts": self.false_alerts,
            "serve.shed": self.shed,
            "serve.replayed": self.replayed,
            "serve.crashes": sum(1 for e in self.chaos_events
                                 if e.get("applied")),
            "serve.recoveries": len(self.recoveries),
            "serve.acks_lost": self.acks_lost,
            **{f"serve.latency.p{pct}": round(percentile(lat, pct), 3)
               for pct in (50, 95, 99)},
            "serve.latency.count": len(lat),
            "serve.latency.sum": total,
            "serve.latency.mean": total / len(lat) if lat else 0.0,
            "serve.latency.max": float(max(lat, default=0.0)),
            "serve.throughput": round(self.throughput, 6),
            "serve.queue_depth.max": self.max_queue_depth,
            "serve.workers.peak": self.peak_workers,
            "serve.scale_ups": actions["scale_up"],
            "serve.drains": actions["drain"],
            "serve.retires": actions["retire"],
        }
        if lat:
            flat["serve.latency.min"] = float(min(lat))
        spec_commits = sum(r.spec_commits for r in self.records)
        spec_rollbacks = sum(r.spec_rollbacks for r in self.records)
        if spec_commits or spec_rollbacks:
            flat["serve.spec.commits"] = spec_commits
            flat["serve.spec.rollbacks"] = spec_rollbacks
        if self.journal is not None:
            flat["serve.duplicates_suppressed"] = self.journal.duplicates
            flat["serve.journal_open"] = self.journal.open_count
        if self.recoveries:
            flat["serve.recovery_latency.max"] = round(
                self.recovery_latency_max(), 1)
        if self.frontend is not None:
            flat.update(frontend_metrics(self.frontend))
        return flat


# -- the serving loop ----------------------------------------------------


#: Bounded retransmit for response frames under wire chaos.
WIRE_RETRY = RetryPolicy()


class _Run:
    """One serving run: the loop state, and one handler per event kind.

    :meth:`ServeSim.run` pops each event off :attr:`clock` and calls
    ``on_<kind>`` with the event's data as its arguments.  The helpers
    below the handlers (dispatch, resubmit, spawn, ...) are the steps
    the handlers share.
    """

    KINDS = ("arrival", "complete", "ready", "migrated", "chaos", "detect",
             "tick")

    def __init__(self, sim: ServeSim,
                 workload: Sequence[ServeRequest]) -> None:
        self.sim = sim
        self.service = sim.service
        self.clock = SimClock()
        self.frontend = FleetFrontend(
            [f"w{i}" for i in range(sim.initial_workers)],
            policy=sim.routing, seed=sim.seed,
            queue_capacity=sim.queue_capacity, shed_limit=sim.shed_limit)
        self.workers: Dict[str, _SimWorker] = {
            wid: _SimWorker(wid) for wid in self.frontend.order
        }
        self.autoscaler = (Autoscaler(sim.autoscaler_config)
                           if sim.autoscaler_config is not None else None)
        self.chaos = sim.chaos
        #: Replication and failure detection arm only when asked for: a
        #: chaos-free run never replicates or declares a worker dead.
        self.protected = sim.chaos is not None or sim.recovery is not None
        self.policy = sim.recovery or RecoveryPolicy()
        self.journal = RequestJournal()
        self.store = ReplicaStore()
        self.result = ServeResult(
            records=[], workers=self.workers, frontend=self.frontend,
            journal=self.journal,
            replica_store=self.store if self.protected else None)
        self.records: Dict[int, RequestRecord] = {}
        #: Admitted requests not yet completed or dropped.
        self.open_requests = 0
        #: Workers with ``busy`` set, kept exact where the flag flips.
        self.in_flight = 0
        #: Workers waiting to migrate at their next request boundary.
        self.migrating: set = set()
        #: Wire-attempt offsets for re-delivered responses: a failed
        #: delivery must not replay the same doomed attempt sequence.
        self.wire_base: Dict[int, int] = {}
        #: Migrated requests that landed while every routable worker was
        #: down but not yet detected; the next worker to join takes them.
        self.held: List[ServeRequest] = []

        for request in workload:
            self.clock.schedule(request.arrival, "arrival", (request,))
        if self.autoscaler is not None and workload:
            self.clock.schedule(sim.autoscaler_config.interval, "tick", ())
        if self.chaos is not None:
            for event in self.chaos.events:
                self.clock.schedule(event.time, "chaos", (event,))

    # -- event handlers --------------------------------------------------

    def on_arrival(self, request: ServeRequest) -> None:
        """Admit a new request to a worker queue, or refuse it."""
        record = RequestRecord(
            index=request.index, session=request.session,
            kind=request.kind, enqueue=self.clock.now)
        self.records[request.index] = record
        self.result.records.append(record)
        frontend = self.frontend
        shed_before = frontend.rejected
        wid = frontend.submit(request, key=request.affinity)
        if wid is None:
            if frontend.rejected > shed_before:
                record.outcome = "rejected"
                self.result.shed += 1
            else:
                record.outcome = "dropped"
                self.result.dropped += 1
            return
        self.journal.admit(request.index, wid)
        self.open_requests += 1
        self.dispatch(wid)

    def on_complete(self, wid: str, request: ServeRequest,
                    cost: ServiceCost, incarnation: int) -> None:
        """A worker finished a request: ack it, then pick the next step."""
        worker = self.workers[wid]
        now = self.clock.now
        if incarnation != worker.incarnation:
            # A completion from a crashed incarnation: the work died
            # with the worker; recovery replays the request.
            self.result.stale_completions += 1
            return
        if now < worker.stall_until:
            # Frozen mid-request: the completion thaws with the worker
            # (a zombie's late finish arrives here too).
            self.clock.schedule(worker.stall_until, "complete",
                                (wid, request, cost, incarnation))
            return
        worker.busy = False
        self.in_flight -= 1
        worker.inflight = None
        worker.busy_cycles += cost.cycles
        ack_delay = self.deliver(wid, request, cost)
        if ack_delay is None:
            # Undeliverable ack: re-execute on the same worker (or let
            # the replay complete it if this worker is gone).
            if not worker.ejected and not worker.crashed:
                self.frontend.slots[wid].queue.insert(0, request)
                self.dispatch(wid)
            return
        authoritative = self.journal.complete(request.index, cost.outcome)
        if authoritative:
            self.open_requests -= 1
            record = self.records[request.index]
            record.complete = now + ack_delay
            record.outcome = cost.outcome
            record.policy_ids = cost.policy_ids
            record.alerts = cost.alerts
            record.response_sha = cost.response_sha
            record.spec_commits = cost.spec_commits
            record.spec_rollbacks = cost.spec_rollbacks
            if cost.outcome == "quarantined":
                worker.evidence += 1
        if cost.fatal:
            self.eject(wid)
            return
        worker.served += 1
        if worker.ejected:
            return  # a zombie: declared dead and replaced already
        if self.protected and authoritative:
            worker.completed_mark = max(worker.completed_mark,
                                        request.index)
            worker.since_replicate += 1
            every = self.policy.replicate_every
            if every and worker.since_replicate >= every:
                self.replicate(wid)
                return
        if wid in self.migrating:
            self.try_migrate(wid)
            return
        self.dispatch(wid)
        self.finish_draining(wid)

    def on_ready(self, wid: str) -> None:
        """A worker finished booting, replicating or stalling."""
        self.dispatch(wid)
        self.finish_draining(wid)

    def on_migrated(self, moved: List[ServeRequest]) -> None:
        """A state blob landed: requeue its requests on the survivors."""
        self.resubmit(moved, migrated=True)

    def on_chaos(self, event) -> None:
        """Apply one scheduled fault: a fail-stop crash or a stall."""
        worker = self.workers.get(event.worker)
        now = self.clock.now
        applied = (worker is not None and not worker.ejected
                   and not worker.crashed and worker.retired_at is None)
        entry = {"time": now, "kind": event.kind,
                 "worker": event.worker, "applied": applied}
        if event.kind == "stall":
            entry["duration"] = event.duration
        self.result.chaos_events.append(entry)
        if not applied:
            return
        patience = self.policy.detection_cycles
        if event.kind == "crash":
            # Fail-stop: silent death.  The frontend learns nothing
            # until the heartbeat detector's patience runs out.
            worker.crashed = True
            worker.incarnation += 1
            self.clock.schedule(now + patience, "detect",
                                (event.worker, "crash", now))
        else:
            worker.stall_until = now + event.duration
            if not worker.busy:
                self.clock.schedule(worker.stall_until, "ready",
                                    (event.worker,))
            if event.duration >= patience:
                # The freeze outlasts the detector: the worker will be
                # declared dead while still (slowly) alive.
                self.clock.schedule(now + patience, "detect",
                                    (event.worker, "stall", now))

    def on_detect(self, wid: str, cause: str, failed_at: float) -> None:
        """The failure detector's verdict: eject, replace, replay."""
        worker = self.workers[wid]
        now = self.clock.now
        if worker.ejected or worker.retired_at is not None:
            return
        if not (worker.crashed or worker.stall_until > now):
            return  # heartbeats resumed before the verdict
        worker.ejected = True
        orphans = self.frontend.eject(wid, f"failure detector: {cause}")
        if worker.inflight is not None:
            # Crash: the in-flight request died with the worker.  Stall:
            # the zombie may yet finish it — replay anyway; the journal
            # suppresses whichever completion is second.
            orphans = [worker.inflight] + orphans
            if worker.crashed:
                worker.inflight = None
                worker.busy = False
                self.in_flight -= 1
        self.scale_event("eject", wid)
        # Spawn the replacement: boot a twin, rehydrate it from the last
        # replicated checkpoint (evidence and all).
        replica = self.store.latest(wid)
        self.store.drop(wid)
        delay = self.service.boot_cycles
        if replica is not None:
            delay += self.policy.rehydrate_cost(self.service)
        replacement = self.spawn("recover", delay)
        if replica is not None:
            replacement.evidence = replica.evidence
            replacement.completed_mark = replica.watermark
        # Replay exactly the journal's open set for the dead worker —
        # completed requests stay completed, nothing is re-run.
        open_ids = set(self.journal.open_for(wid))
        replay = [r for r in orphans if r.index in open_ids]
        new_wid = replacement.worker_id
        self.journal.reassign([r.index for r in replay], new_wid)
        queue = self.frontend.slots[new_wid].queue
        for request in replay:
            queue.append(request)
            self.records[request.index].rerouted = True
        self.result.replayed += len(replay)
        self.result.recoveries.append({
            "worker": wid, "replacement": new_wid, "cause": cause,
            "failed_at": failed_at, "detected_at": now,
            "recovered_at": replacement.available_at,
            "recovery_latency": replacement.available_at - failed_at,
            "watermark": replica.watermark if replica is not None else -1,
            "evidence": replica.evidence if replica is not None else 0,
            "replayed": len(replay),
        })

    def on_tick(self) -> None:
        """The autoscaler's control step: sample depth, scale, re-arm."""
        # Drop trailing ticks once all work has finished.
        if not (self.open_requests > 0 or self.clock):
            return
        frontend = self.frontend
        now = self.clock.now
        queued = frontend.total_queued
        routable = frontend.routable_count
        action = self.autoscaler.observe(now, queued, routable)
        self.result.depth_series.append({
            "time": now,
            "queued": queued,
            "in_flight": self.in_flight,
            "routable_workers": routable,
            "smoothed": round(self.autoscaler.smoothed, 4),
        })
        if action == "scale_up":
            self.spawn("scale_up", self.service.boot_cycles)
        elif action == "drain":
            # Scale-down unwinds LIFO: the newest live worker drains.
            live = self.live_workers()
            if live:
                victim = live[-1]
                frontend.drain(victim)
                self.scale_event("drain", victim)
                if (self.sim.migrate_on_drain
                        and frontend.routable_count >= 1):
                    self.migrating.add(victim)
                    self.try_migrate(victim)
                else:
                    self.finish_draining(victim)
        if self.open_requests > 0 or self.clock:
            self.clock.schedule(now + self.sim.autoscaler_config.interval,
                                "tick", ())

    # -- shared steps ----------------------------------------------------

    def dispatch(self, wid: str) -> None:
        """Start the worker's next queued request if it is free to."""
        worker = self.workers[wid]
        slot = self.frontend.slots[wid]
        if (worker.busy or not slot.queue or worker.ejected
                or worker.crashed):
            return
        now = self.clock.now
        if now < worker.available_at or now < worker.stall_until:
            return  # booting/stalled; a 'ready' event will retry
        request = slot.queue.pop(0)
        record = self.records[request.index]
        cost = self.service.cost(request.payload, request.tags)
        record.worker = wid
        record.dispatch = now
        record.service = cost.cycles
        worker.busy = True
        self.in_flight += 1
        worker.inflight = request
        self.journal.assign(request.index, wid)
        self.clock.schedule(now + cost.cycles, "complete",
                            (wid, request, cost, worker.incarnation))

    def deliver(self, wid: str, request: ServeRequest,
                cost: ServiceCost) -> Optional[float]:
        """Ship the response frame over the (possibly chaotic) wire.

        Returns the backoff cycles the frontend spent retransmitting,
        or None when the ack was undeliverable within one retry budget
        — at-least-once transport's worst case, handled by re-executing
        the request (the journal still completes the id exactly once).
        """
        chaos = self.chaos
        if chaos is None or not chaos.wire_active:
            return 0.0
        frame = TaggedMessage(
            payload=(cost.response_sha or cost.outcome).encode(),
            request_id=request.index & 0xFFFFFFFF,
            origin=f"worker:{wid}").to_bytes()
        base = self.wire_base.get(request.index, 0)
        try:
            _msg, backoff = self.frontend.receive_frame(
                lambda attempt: chaos.transmit(
                    frame, request.index, base + attempt),
                retry=WIRE_RETRY)
        except WireFormatError:
            self.wire_base[request.index] = base + WIRE_RETRY.limit + 1
            self.result.acks_lost += 1
            return None
        self.result.retransmit_cycles += backoff
        return backoff

    def resubmit(self, requests: Sequence[ServeRequest], *,
                 migrated: bool) -> None:
        """Re-route admitted requests whose worker left the rotation.

        Fatal-ejection orphans and landed migrations come through here.
        Migrated requests are admitted work already: when routing
        refuses one (shedding or full queues) it goes to the
        least-loaded live survivor, past the admission check, and the
        frontend counts no refusal.  With no live survivor it waits in
        :attr:`held` while a crashed worker's detection is pending:
        detection always spawns a replacement, and :meth:`spawn` takes
        the held requests.  Any other request with nowhere to go is
        dropped.
        """
        frontend = self.frontend
        for request in requests:
            record = self.records[request.index]
            if not migrated:
                target = frontend.submit(request, key=request.affinity)
            elif frontend.shedding:
                target = None
            else:
                target = frontend.place(request, key=request.affinity)
            if target is None and migrated:
                live = self.live_workers()
                if live:
                    target = min(
                        live, key=lambda wid: len(frontend.slots[wid].queue))
                    frontend.slots[target].queue.append(request)
                elif any(self.workers[wid].crashed
                         for wid in frontend.routable_ids):
                    self.held.append(request)
                    continue
                else:
                    frontend.dropped += 1
            if target is None:
                record.outcome = "dropped"
                self.result.dropped += 1
                self.open_requests -= 1
                self.journal.complete(request.index, "dropped")
                continue
            self.journal.assign(request.index, target)
            if migrated:
                record.migrated = True
                self.result.migrated += 1
            else:
                record.rerouted = True
                self.result.rerouted += 1
            self.dispatch(target)

    def eject(self, wid: str) -> None:
        """A fatal request took the worker down: re-route its queue."""
        self.workers[wid].ejected = True
        self.store.drop(wid)
        orphans = self.frontend.eject(wid, "fatal request")
        self.scale_event("eject", wid)
        self.resubmit(orphans, migrated=False)

    def spawn(self, action: str, delay: float) -> _SimWorker:
        """Join a new worker that can first dispatch ``delay`` from now."""
        now = self.clock.now
        wid = f"w{len(self.workers)}"
        self.frontend.add_worker(wid)
        worker = _SimWorker(wid, spawned_at=now, available_at=now + delay)
        self.workers[wid] = worker
        self.scale_event(action, wid)
        self.clock.schedule(worker.available_at, "ready", (wid,))
        if self.held:
            held, self.held = self.held, []
            self.resubmit(held, migrated=True)
        return worker

    def replicate(self, wid: str) -> None:
        """Ship one checkpoint replica; the worker pays the window."""
        worker = self.workers[wid]
        now = self.clock.now
        worker.since_replicate = 0
        self.store.store(Replica(worker=wid,
                                 watermark=worker.completed_mark,
                                 evidence=worker.evidence, time=now))
        worker.available_at = now + self.policy.replication_cycles
        self.clock.schedule(worker.available_at, "ready", (wid,))

    def finish_draining(self, wid: str) -> None:
        """Retire a draining worker once its queue and hands are empty."""
        slot = self.frontend.slots[wid]
        worker = self.workers[wid]
        if slot.draining and not slot.queue and not worker.busy:
            self.frontend.retire(wid)
            self.store.drop(wid)
            worker.retired_at = self.clock.now
            self.scale_event("retire", wid)

    def try_migrate(self, wid: str) -> None:
        """Pack and retire a draining worker at a request boundary.

        Waits for the in-flight request to finish (the pack point is
        the accept boundary, exactly where repro.resil takes its
        checkpoints); queued requests ship inside the blob and land on
        the survivors after the measured migration delay.
        """
        worker = self.workers[wid]
        if wid not in self.migrating or worker.busy:
            return
        self.migrating.discard(wid)
        slot = self.frontend.slots[wid]
        moved = list(slot.queue)
        slot.queue.clear()
        self.frontend.retire(wid)
        self.store.drop(wid)
        worker.retired_at = self.clock.now
        self.scale_event("migrate", wid)
        if moved:
            self.clock.schedule(
                self.clock.now + self.service.migration_cycles,
                "migrated", (moved,))

    def live_workers(self) -> List[str]:
        """Routable workers not known here to be ejected or crashed."""
        return [wid for wid in self.frontend.routable_ids
                if not self.workers[wid].ejected
                and not self.workers[wid].crashed]

    def scale_event(self, action: str, wid: str) -> None:
        """Record a change to the worker set at the current depth."""
        depth = self.autoscaler.smoothed if self.autoscaler else 0.0
        self.result.scale_events.append({
            "action": action, "worker": wid,
            "depth": round(depth, 4),
            "workers": self.frontend.routable_count,
            "time": self.clock.now,
        })


class ServeSim:
    """Open-loop serving of a workload over measured worker budgets.

    Arrivals route through a :class:`FleetFrontend` (hash policy keyed
    by session affinity by default); busy workers queue requests at
    their slot; completions free the worker for the next queued
    request.  With an :class:`AutoscalerConfig` the worker set grows
    and shrinks at tick cadence: spawned workers pay the measured boot
    budget before their first dispatch, drained workers serve out their
    queue and retire.  A worker whose request comes back *fatal*
    (raise-mode alert or unrecoverable fault in the measurement) is
    ejected and its queue re-routes to the survivors.

    With a :class:`~repro.chaos.schedule.ChaosSchedule` the loop runs
    the full failure story: fail-stop crashes kill a worker silently
    (its in-flight request and queue go with it), a heartbeat detector
    declares it dead ``detection_cycles`` later, and recovery spawns a
    replacement rehydrated from the last replicated checkpoint, then
    replays exactly the request-id journal's open set.  Stalls freeze a
    worker without killing it; a stall outlasting the detector makes a
    *zombie* whose late completion the journal suppresses.  Wire chaos
    corrupts/drops response frames, absorbed by the frontend's bounded
    retransmit.  ``shed_limit`` arms 503-style admission shedding.
    """

    def __init__(self, *, workers: int = 2, seed: int = 0,
                 routing: str = "hash",
                 queue_capacity: Optional[int] = None,
                 service_model: Optional[ServiceModel] = None,
                 autoscaler: Optional[AutoscalerConfig] = None,
                 migrate_on_drain: bool = False,
                 chaos: Optional[ChaosSchedule] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 shed_limit: Optional[int] = None) -> None:
        if workers <= 0:
            raise ValueError("serving needs at least one worker")
        self.initial_workers = workers
        self.seed = seed
        self.routing = routing
        self.queue_capacity = queue_capacity
        self.service = service_model or ServiceModel()
        self.autoscaler_config = autoscaler
        #: Seeded adversity for this run (None = a polite fleet).
        self.chaos = chaos
        #: Failure-detection / replication tuning; a default policy is
        #: armed whenever chaos is present.
        self.recovery = recovery
        self.shed_limit = shed_limit
        #: Drain via live migration: a drained worker finishes its
        #: in-flight request (the pack point is a request boundary, as
        #: in repro.resil.migrate), then its queued requests ship to the
        #: survivors inside the state blob and it retires immediately —
        #: zero dropped, zero re-executed.  Plain drain instead serves
        #: out the whole queue before retiring.
        self.migrate_on_drain = migrate_on_drain

    def run(self, workload: Sequence[ServeRequest]) -> ServeResult:
        """Serve one workload to completion; returns the full result."""
        run = _Run(self, workload)
        handlers = {kind: getattr(run, f"on_{kind}") for kind in run.KINDS}
        clock = run.clock
        while clock:
            kind, data = clock.pop()
            handlers[kind](*data)
        return run.result
