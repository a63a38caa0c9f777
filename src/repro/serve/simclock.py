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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.journal import RequestJournal
from repro.chaos.replica import RecoveryPolicy, Replica, ReplicaStore
from repro.chaos.schedule import ChaosSchedule
from repro.fleet.driver import FleetConfig, run_worker
from repro.fleet.frontend import FleetFrontend
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

    def mean_cycles(self, payloads: Sequence[bytes]) -> float:
        """Mean measured budget over a payload set (capacity planning)."""
        if not payloads:
            return 0.0
        return sum(self.cost(p).cycles for p in payloads) / len(payloads)


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
    crashed_at: float = -1.0
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

    def metrics(self):
        """``serve.*`` instruments plus the frontend's routing counters."""
        from repro.fleet.observe import frontend_metrics
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        pcts = self.latency_percentiles()
        reg.counter("serve.requests", "open-loop arrivals").value = \
            len(self.records)
        reg.counter("serve.served", "requests answered").value = self.served
        reg.counter("serve.quarantined",
                    "attacks absorbed by rollback").value = self.quarantined
        reg.counter("serve.dropped",
                    "arrivals refused by backpressure").value = self.dropped
        reg.counter("serve.rerouted",
                    "requests re-routed after ejection").value = self.rerouted
        reg.counter("serve.migrated",
                    "requests moved by drain-via-migration").value = \
            self.migrated
        reg.counter("serve.migrations", "worker live migrations").value = sum(
            1 for e in self.scale_events if e["action"] == "migrate")
        reg.counter("serve.false_alerts",
                    "alerts on clean traffic").value = self.false_alerts
        spec_commits = sum(r.spec_commits for r in self.records)
        spec_rollbacks = sum(r.spec_rollbacks for r in self.records)
        if spec_commits or spec_rollbacks:
            reg.counter("serve.spec.commits",
                        "speculation epochs committed across the "
                        "fleet").value = spec_commits
            reg.counter("serve.spec.rollbacks",
                        "speculation epochs rolled back and "
                        "replayed").value = spec_rollbacks
        reg.counter("serve.shed",
                    "arrivals refused by admission control").value = self.shed
        reg.counter("serve.replayed",
                    "requests replayed after worker failure").value = \
            self.replayed
        reg.counter("serve.crashes", "chaos faults applied").value = sum(
            1 for e in self.chaos_events if e.get("applied"))
        reg.counter("serve.recoveries",
                    "dead workers detected and replaced").value = \
            len(self.recoveries)
        reg.counter("serve.acks_lost",
                    "response frames undeliverable in one budget").value = \
            self.acks_lost
        if self.journal is not None:
            reg.counter("serve.duplicates_suppressed",
                        "late completions deduped by the journal").value = \
                self.journal.duplicates
            reg.gauge("serve.journal_open",
                      "admitted requests never completed").set(
                self.journal.open_count)
        if self.recoveries:
            reg.gauge("serve.recovery_latency.max",
                      "slowest failure-to-ready interval (cycles)").set(
                round(self.recovery_latency_max(), 1))
        for name, value in pcts.items():
            reg.gauge(f"serve.latency.{name}",
                      "arrival-to-completion latency (cycles)").set(
                round(value, 3))
        hist = reg.histogram("serve.latency", "per-request latency")
        for lat in self.latencies():
            hist.observe(lat)
        reg.gauge("serve.throughput",
                  "served requests per 1e6 cycles").set(
            round(self.throughput, 6))
        reg.gauge("serve.queue_depth.max",
                  "deepest sampled frontend queue").set(self.max_queue_depth)
        reg.gauge("serve.workers.peak",
                  "most routable workers at once").set(self.peak_workers)
        reg.counter("serve.scale_ups", "autoscaler spawns").value = sum(
            1 for e in self.scale_events if e["action"] == "scale_up")
        reg.counter("serve.drains", "autoscaler drains").value = sum(
            1 for e in self.scale_events if e["action"] == "drain")
        reg.counter("serve.retires", "drained workers removed").value = sum(
            1 for e in self.scale_events if e["action"] == "retire")
        if self.frontend is not None:
            frontend_metrics(self.frontend, reg)
        return reg

    def to_report(self) -> Dict:
        """JSON-ready summary (records elided to tallies)."""
        detection = self.attack_detection()
        report = {
            "requests": len(self.records),
            "served": self.served,
            "quarantined": self.quarantined,
            "dropped": self.dropped,
            "rerouted": self.rerouted,
            "migrated": self.migrated,
            "shed": self.shed,
            "replayed": self.replayed,
            "false_alerts": self.false_alerts,
            "detection": detection,
            "latency": {k: round(v, 1)
                        for k, v in self.latency_percentiles().items()},
            "throughput": round(self.throughput, 3),
            "makespan": round(self.makespan, 1),
            "max_queue_depth": self.max_queue_depth,
            "peak_workers": self.peak_workers,
            "scale_events": self.scale_events,
            "digest": self.digest(),
            "outcome_digest": self.outcome_digest(),
        }
        if self.journal is not None:
            report["journal"] = self.journal.to_dict()
        if self.chaos_events or self.recoveries:
            report["chaos"] = {
                "events": self.chaos_events,
                "recoveries": self.recoveries,
                "stale_completions": self.stale_completions,
                "acks_lost": self.acks_lost,
                "retransmit_cycles": round(self.retransmit_cycles, 1),
                "recovery_latency_max": round(
                    self.recovery_latency_max(), 1),
            }
        if self.replica_store is not None:
            report["replication"] = self.replica_store.to_dict()
        return report


# -- the serving loop ----------------------------------------------------


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
                 config: Optional[FleetConfig] = None,
                 service_model: Optional[ServiceModel] = None,
                 autoscaler: Optional[AutoscalerConfig] = None,
                 migrate_on_drain: bool = False,
                 migration_cycles: Optional[float] = None,
                 chaos: Optional[ChaosSchedule] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 shed_limit: Optional[int] = None,
                 wire_retry: Optional[RetryPolicy] = None,
                 tracing: bool = False) -> None:
        if workers <= 0:
            raise ValueError("serving needs at least one worker")
        self.initial_workers = workers
        self.seed = seed
        self.routing = routing
        self.queue_capacity = queue_capacity
        self.service = service_model or ServiceModel(config)
        self.autoscaler_config = autoscaler
        #: Seeded adversity for this run (None = a polite fleet).
        self.chaos = chaos
        #: Failure-detection / replication tuning; a default policy is
        #: armed whenever chaos is present.
        self.recovery = recovery
        self.shed_limit = shed_limit
        self.wire_retry = wire_retry
        #: Drain via live migration: a drained worker finishes its
        #: in-flight request (the pack point is a request boundary, as
        #: in repro.resil.migrate), then its queued requests ship to the
        #: survivors inside the state blob and it retires immediately —
        #: zero dropped, zero re-executed.  Plain drain instead serves
        #: out the whole queue before retiring.
        self.migrate_on_drain = migrate_on_drain
        #: Override for the measured pack+ship+rehydrate cost (None =
        #: price a real blob via ServiceModel.migration_cycles).
        self._migration_cycles = migration_cycles
        self.tracer = None
        if tracing:
            from repro.obs.tracer import Tracer

            self.tracer = Tracer()

    @property
    def migration_cycles(self) -> float:
        """Simulated cost of one worker migration."""
        if self._migration_cycles is not None:
            return self._migration_cycles
        return self.service.migration_cycles

    # -- event handlers --------------------------------------------------

    def run(self, workload: Sequence[ServeRequest]) -> ServeResult:
        """Serve one workload to completion; returns the full result."""
        clock = SimClock()
        frontend = FleetFrontend(
            [f"w{i}" for i in range(self.initial_workers)],
            policy=self.routing, seed=self.seed,
            queue_capacity=self.queue_capacity,
            shed_limit=self.shed_limit)
        workers: Dict[str, _SimWorker] = {
            wid: _SimWorker(wid) for wid in frontend.order
        }
        autoscaler = (Autoscaler(self.autoscaler_config)
                      if self.autoscaler_config is not None else None)
        chaos = self.chaos
        #: Replication + failure detection arm only when asked for —
        #: a chaos-free run stays byte-for-byte the PR-6/7 loop.
        protected = chaos is not None or self.recovery is not None
        policy = self.recovery or RecoveryPolicy()
        wire_retry = self.wire_retry or RetryPolicy()
        journal = RequestJournal()
        store = ReplicaStore()
        result = ServeResult(records=[], workers=workers, frontend=frontend,
                             journal=journal,
                             replica_store=store if protected else None)
        records: Dict[int, RequestRecord] = {}
        open_requests = 0
        #: Workers with ``busy`` set, kept exact where the flag flips.
        in_flight = 0
        next_worker = self.initial_workers
        #: Workers waiting to migrate at their next request boundary.
        migrating: set = set()
        #: Wire-attempt offsets for re-delivered responses: a failed
        #: delivery must not replay the same doomed attempt sequence.
        wire_base: Dict[int, int] = {}

        for request in workload:
            clock.schedule(request.arrival, "arrival", request)
        if autoscaler is not None and workload:
            clock.schedule(self.autoscaler_config.interval, "tick")
        if chaos is not None:
            for event in chaos.events:
                clock.schedule(event.time, "chaos", event)

        def dispatch(wid: str) -> None:
            nonlocal in_flight
            worker = workers[wid]
            slot = frontend.slots[wid]
            if (worker.busy or not slot.queue or worker.ejected
                    or worker.crashed):
                return
            if clock.now < worker.available_at or clock.now < worker.stall_until:
                return  # booting/stalled; a 'ready' event will retry
            request = slot.queue.pop(0)
            record = records[request.index]
            cost = self.service.cost(request.payload, request.tags)
            record.worker = wid
            record.dispatch = clock.now
            record.service = cost.cycles
            worker.busy = True
            in_flight += 1
            worker.inflight = request
            journal.assign(request.index, wid)
            clock.schedule(clock.now + cost.cycles, "complete",
                           (wid, request, cost, worker.incarnation))

        def finish_draining(wid: str) -> None:
            slot = frontend.slots[wid]
            worker = workers[wid]
            if slot.draining and not slot.queue and not worker.busy:
                frontend.retire(wid)
                worker.retired_at = clock.now
                scale_event("retire", wid,
                            autoscaler.smoothed if autoscaler else 0.0)

        def try_migrate(wid: str) -> None:
            """Pack and retire a draining worker at a request boundary.

            Waits for the in-flight request to finish (the pack point
            is the accept boundary, exactly where repro.resil takes its
            checkpoints); queued requests ship inside the blob and land
            on the survivors after the measured migration delay.
            """
            worker = workers[wid]
            if wid not in migrating or worker.busy:
                return
            migrating.discard(wid)
            slot = frontend.slots[wid]
            moved = list(slot.queue)
            slot.queue.clear()
            frontend.retire(wid)
            worker.retired_at = clock.now
            scale_event("migrate", wid,
                        autoscaler.smoothed if autoscaler else 0.0)
            if moved:
                clock.schedule(clock.now + self.migration_cycles,
                               "migrated", (wid, moved))

        def on_migrated(wid: str, moved: List[ServeRequest]) -> None:
            """The state blob landed: requeue its requests, never drop."""
            nonlocal open_requests
            for request in moved:
                record = records[request.index]
                target = frontend.submit(request, key=request.affinity)
                if target is None:
                    # Migrated requests are already admitted work — pick
                    # the least-loaded routable survivor, bypassing the
                    # admission capacity check.
                    candidates = [
                        s for s in frontend.routable_ids
                        if not workers[s].ejected and not workers[s].crashed
                    ]
                    if not candidates:
                        record.outcome = "dropped"
                        result.dropped += 1
                        open_requests -= 1
                        journal.complete(request.index, "dropped")
                        continue
                    target = min(
                        candidates,
                        key=lambda s: len(frontend.slots[s].queue))
                    frontend.slots[target].queue.append(request)
                journal.assign(request.index, target)
                record.migrated = True
                result.migrated += 1
                dispatch(target)

        def scale_event(action: str, wid: str, depth: float) -> None:
            event = {
                "action": action, "worker": wid,
                "depth": round(depth, 4),
                "workers": frontend.routable_count,
                "time": clock.now,
            }
            result.scale_events.append(event)
            if self.tracer is not None:
                from repro.obs.events import ScaleEvent

                self.tracer.emit(ScaleEvent(
                    action=action, worker=wid, depth=event["depth"],
                    workers=event["workers"], time=clock.now))

        def complete_record(record: RequestRecord, cost: ServiceCost,
                            delay: float = 0.0) -> None:
            record.complete = clock.now + delay
            record.outcome = cost.outcome
            record.policy_ids = cost.policy_ids
            record.alerts = cost.alerts
            record.response_sha = cost.response_sha
            record.spec_commits = cost.spec_commits
            record.spec_rollbacks = cost.spec_rollbacks
            if self.tracer is not None:
                from repro.obs.events import ServeRequestEvent

                self.tracer.emit(ServeRequestEvent(
                    index=record.index, request_kind=record.kind,
                    worker=record.worker, outcome=record.outcome,
                    enqueue=record.enqueue, dispatch=record.dispatch,
                    complete=record.complete))

        def on_arrival(request: ServeRequest) -> None:
            nonlocal open_requests
            record = RequestRecord(
                index=request.index, session=request.session,
                kind=request.kind, enqueue=clock.now)
            records[request.index] = record
            result.records.append(record)
            shed_before = frontend.rejected
            wid = frontend.submit(request, key=request.affinity)
            if wid is None:
                if frontend.rejected > shed_before:
                    record.outcome = "rejected"
                    result.shed += 1
                else:
                    record.outcome = "dropped"
                    result.dropped += 1
                return
            journal.admit(request.index, wid)
            open_requests += 1
            dispatch(wid)

        def deliver_response(wid: str, request: ServeRequest,
                             cost: ServiceCost):
            """Ship the response frame over the (possibly chaotic) wire.

            Returns the backoff cycles the frontend spent retransmitting,
            or None when the ack was undeliverable within one retry
            budget — at-least-once transport's worst case, handled by
            re-executing the request (the journal still completes the
            id exactly once).
            """
            if chaos is None or not chaos.wire_active:
                return 0.0
            frame = TaggedMessage(
                payload=(cost.response_sha or cost.outcome).encode(),
                request_id=request.index & 0xFFFFFFFF,
                origin=f"worker:{wid}").to_bytes()
            base = wire_base.get(request.index, 0)
            try:
                _msg, backoff = frontend.receive_frame(
                    lambda attempt: chaos.transmit(
                        frame, request.index, base + attempt),
                    retry=wire_retry)
            except WireFormatError:
                wire_base[request.index] = base + wire_retry.limit + 1
                result.acks_lost += 1
                return None
            result.retransmit_cycles += backoff
            return backoff

        def on_complete(wid: str, request: ServeRequest,
                        cost: ServiceCost, incarnation: int) -> None:
            nonlocal open_requests, in_flight
            worker = workers[wid]
            if incarnation != worker.incarnation:
                # A completion from a crashed incarnation: the work
                # died with the worker; recovery replays the request.
                result.stale_completions += 1
                return
            if clock.now < worker.stall_until:
                # Frozen mid-request: the completion thaws with the
                # worker (a zombie's late finish arrives here too).
                clock.schedule(worker.stall_until, "complete",
                               (wid, request, cost, incarnation))
                return
            worker.busy = False
            in_flight -= 1
            worker.inflight = None
            worker.busy_cycles += cost.cycles
            ack_delay = deliver_response(wid, request, cost)
            if ack_delay is None:
                # Undeliverable ack: re-execute on the same worker (or
                # let the replay complete it if this worker is gone).
                if not worker.ejected and not worker.crashed:
                    frontend.slots[wid].queue.insert(0, request)
                    dispatch(wid)
                return
            record = records[request.index]
            authoritative = journal.complete(request.index, cost.outcome)
            if authoritative:
                open_requests -= 1
                complete_record(record, cost, delay=ack_delay)
                if cost.outcome == "quarantined":
                    worker.evidence += 1
            if cost.fatal:
                eject(wid)
                return
            worker.served += 1
            if worker.ejected:
                return  # a zombie: declared dead and replaced already
            if protected and authoritative:
                worker.completed_mark = max(worker.completed_mark,
                                            request.index)
                worker.since_replicate += 1
                if (policy.replicate_every
                        and worker.since_replicate >= policy.replicate_every):
                    replicate(wid)
                    return
            if wid in migrating:
                try_migrate(wid)
                return
            dispatch(wid)
            finish_draining(wid)

        def replicate(wid: str) -> None:
            """Ship one checkpoint replica; the worker pays the window."""
            worker = workers[wid]
            worker.since_replicate = 0
            store.store(Replica(worker=wid, watermark=worker.completed_mark,
                                evidence=worker.evidence, time=clock.now))
            worker.available_at = clock.now + policy.replication_cycles
            clock.schedule(worker.available_at, "ready", wid)

        def eject(wid: str) -> None:
            nonlocal open_requests
            worker = workers[wid]
            worker.ejected = True
            orphans = frontend.eject(wid, "fatal request")
            scale_event("eject", wid,
                        autoscaler.smoothed if autoscaler else 0.0)
            for orphan in orphans:
                open_requests -= 1
                record = records[orphan.index]
                target = frontend.submit(orphan, key=orphan.affinity)
                if target is None:
                    record.outcome = "dropped"
                    result.dropped += 1
                    journal.complete(orphan.index, "dropped")
                    continue
                journal.assign(orphan.index, target)
                record.rerouted = True
                result.rerouted += 1
                open_requests += 1
                dispatch(target)

        def on_tick() -> None:
            assert autoscaler is not None
            queued = frontend.total_queued
            routable = frontend.routable_count
            action = autoscaler.observe(clock.now, queued, routable)
            result.depth_series.append({
                "time": clock.now,
                "queued": queued,
                "in_flight": in_flight,
                "routable_workers": routable,
                "smoothed": round(autoscaler.smoothed, 4),
            })
            if action == "scale_up":
                nonlocal next_worker
                wid = f"w{next_worker}"
                next_worker += 1
                frontend.add_worker(wid)
                worker = _SimWorker(
                    wid, spawned_at=clock.now,
                    available_at=clock.now + self.service.boot_cycles)
                workers[wid] = worker
                scale_event("scale_up", wid, autoscaler.smoothed)
                clock.schedule(worker.available_at, "ready", wid)
            elif action == "drain":
                victim = self._drain_victim(frontend, workers)
                if victim is not None:
                    frontend.drain(victim)
                    scale_event("drain", victim, autoscaler.smoothed)
                    if (self.migrate_on_drain
                            and frontend.routable_count >= 1):
                        migrating.add(victim)
                        try_migrate(victim)
                    else:
                        finish_draining(victim)
            if open_requests > 0 or clock:
                clock.schedule(clock.now + self.autoscaler_config.interval,
                               "tick")

        def on_chaos(event) -> None:
            worker = workers.get(event.worker)
            applied = (worker is not None and not worker.ejected
                       and not worker.crashed
                       and worker.retired_at is None)
            entry = {"time": clock.now, "kind": event.kind,
                     "worker": event.worker, "applied": applied}
            if event.kind == "stall":
                entry["duration"] = event.duration
            result.chaos_events.append(entry)
            if self.tracer is not None:
                from repro.obs.events import WorkerCrashEvent

                self.tracer.emit(WorkerCrashEvent(
                    fault=event.kind, worker=event.worker, time=clock.now,
                    duration=event.duration, applied=applied))
            if not applied:
                return
            if event.kind == "crash":
                # Fail-stop: silent death.  The frontend learns nothing
                # until the heartbeat detector's patience runs out.
                worker.crashed = True
                worker.crashed_at = clock.now
                worker.incarnation += 1
                clock.schedule(clock.now + policy.detection_cycles,
                               "detect", (event.worker, "crash", clock.now))
            else:
                worker.stall_until = clock.now + event.duration
                if not worker.busy:
                    clock.schedule(worker.stall_until, "ready", event.worker)
                if event.duration >= policy.detection_cycles:
                    # The freeze outlasts the detector: the worker will
                    # be declared dead while still (slowly) alive.
                    clock.schedule(clock.now + policy.detection_cycles,
                                   "detect",
                                   (event.worker, "stall", clock.now))

        def on_detect(wid: str, cause: str, failed_at: float) -> None:
            """The failure detector's verdict: eject, replace, replay."""
            nonlocal next_worker, in_flight
            worker = workers[wid]
            if worker.ejected or worker.retired_at is not None:
                return
            if not (worker.crashed or worker.stall_until > clock.now):
                return  # heartbeats resumed before the verdict
            worker.ejected = True
            orphans = frontend.eject(wid, f"failure detector: {cause}")
            inflight = worker.inflight
            if inflight is not None:
                # Crash: the in-flight request died with the worker.
                # Stall: the zombie may yet finish it — replay anyway;
                # the journal suppresses whichever completion is second.
                orphans = [inflight] + orphans
                if worker.crashed:
                    worker.inflight = None
                    worker.busy = False
                    in_flight -= 1
            scale_event("eject", wid,
                        autoscaler.smoothed if autoscaler else 0.0)
            # Spawn the replacement: boot a twin, rehydrate it from the
            # last replicated checkpoint (evidence and all).
            replica = store.latest(wid)
            new_wid = f"w{next_worker}"
            next_worker += 1
            delay = self.service.boot_cycles
            if replica is not None:
                delay += (policy.rehydrate_cycles
                          if policy.rehydrate_cycles is not None
                          else self.migration_cycles)
            frontend.add_worker(new_wid)
            replacement = _SimWorker(new_wid, spawned_at=clock.now,
                                     available_at=clock.now + delay)
            if replica is not None:
                replacement.evidence = replica.evidence
                replacement.completed_mark = replica.watermark
            workers[new_wid] = replacement
            scale_event("recover", new_wid,
                        autoscaler.smoothed if autoscaler else 0.0)
            # Replay exactly the journal's open set for the dead worker
            # — completed requests stay completed, nothing is re-run.
            open_ids = set(journal.open_for(wid))
            replay = [r for r in orphans if r.index in open_ids]
            journal.reassign([r.index for r in replay], new_wid)
            for request in replay:
                frontend.slots[new_wid].queue.append(request)
                records[request.index].rerouted = True
            result.replayed += len(replay)
            entry = {
                "worker": wid, "replacement": new_wid, "cause": cause,
                "failed_at": failed_at, "detected_at": clock.now,
                "recovered_at": replacement.available_at,
                "recovery_latency": replacement.available_at - failed_at,
                "watermark": (replica.watermark
                              if replica is not None else -1),
                "evidence": replica.evidence if replica is not None else 0,
                "replayed": len(replay),
            }
            result.recoveries.append(entry)
            if self.tracer is not None:
                from repro.obs.events import RecoveryEvent

                self.tracer.emit(RecoveryEvent(
                    worker=wid, replacement=new_wid, cause=cause,
                    failed_at=failed_at, detected_at=clock.now,
                    recovered_at=replacement.available_at,
                    watermark=entry["watermark"], replayed=len(replay)))
            clock.schedule(replacement.available_at, "ready", new_wid)

        while clock:
            kind, data = clock.pop()
            if kind == "arrival":
                on_arrival(data)
            elif kind == "complete":
                wid, request, cost, incarnation = data
                on_complete(wid, request, cost, incarnation)
            elif kind == "ready":
                dispatch(data)
                finish_draining(data)
            elif kind == "migrated":
                wid, moved = data
                on_migrated(wid, moved)
            elif kind == "chaos":
                on_chaos(data)
            elif kind == "detect":
                wid, cause, failed_at = data
                on_detect(wid, cause, failed_at)
            elif kind == "tick":
                # Drop trailing ticks once all work has finished.
                if open_requests > 0 or clock:
                    on_tick()
        return result

    @staticmethod
    def _drain_victim(frontend: FleetFrontend,
                      workers: Dict[str, _SimWorker]) -> Optional[str]:
        """Newest routable worker — scale-down unwinds LIFO."""
        for wid in reversed(frontend.routable_ids):
            if not workers[wid].ejected and not workers[wid].crashed:
                return wid
        return None
