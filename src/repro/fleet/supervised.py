"""Supervised multiprocessing fleet: real processes, real SIGKILL.

:class:`FleetDriver`'s plain multiprocessing path assumes every worker
process returns; a worker that dies takes its queue and its quarantine
evidence with it.  :class:`SupervisedFleet` is the chaos-tolerant
version: each worker process serves one request per message, emits
heartbeats while idle, and periodically ships its packed machine state
(a real ``SHFTMIG1`` blob with a request-index watermark) back to the
parent.  The parent runs the failure detector — a worker is declared
dead when its process object reports dead *or* its heartbeats go
silent past the detector's patience — and recovery then:

1. rehydrates a replacement machine from the last replicated blob
   (:func:`repro.chaos.replica.recover_from_replica`), preserving the
   quarantine evidence the blob carried;
2. joins a *new process* to the rotation via
   :meth:`FleetFrontend.add_worker` — the wall-clock arm's first real
   scale-up — and
3. replays exactly the request-id journal's open set for the dead
   worker, so completed requests never re-run and in-flight ones never
   get lost.

Chaos directives (:class:`repro.chaos.schedule.WorkerChaos`) make the
failures real: ``crash_after=N`` has the worker ``SIGKILL`` itself the
moment it picks up its Nth request — a fail-stop at a request
boundary, the same crash model the simulated arm injects — and
``stall_after`` freezes it long enough to be declared dead, after
which its late acknowledgements arrive anyway and the journal
suppresses them (a real zombie, on real processes).

Wall-clock results are not bit-reproducible; the gateable version of
this story is the simulated arm in :mod:`repro.serve.simclock`.  This
module is its reality check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from queue import Empty
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.journal import RequestJournal
from repro.chaos.replica import Replica, ReplicaStore, recover_from_replica
from repro.chaos.schedule import ChaosSchedule
from repro.fleet.driver import FleetConfig, run_worker
from repro.fleet.frontend import FleetFrontend

__all__ = ["SupervisedFleet", "SupervisionConfig"]


@dataclass(frozen=True)
class SupervisionConfig:
    """Wall-clock failure-detection and replication tuning."""

    #: Seconds between idle-worker heartbeats.
    heartbeat_seconds: float = 0.25
    #: Missed heartbeat intervals before a silent worker is declared dead.
    miss_threshold: int = 4
    #: Completed requests between blob replications (0 = never).
    replicate_every: int = 2
    #: Parent poll granularity while supervising.
    poll_seconds: float = 0.05
    #: Overall deadline for one run (a chaos run must still terminate).
    result_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.heartbeat_seconds <= 0 or self.poll_seconds <= 0:
            raise ValueError("supervision intervals must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")

    @property
    def detection_seconds(self) -> float:
        """Worst-case silence before a worker is declared dead."""
        return self.heartbeat_seconds * self.miss_threshold


def _supervised_worker(config, worker_id, inbox, outbox, directive,
                       heartbeat_seconds, replicate_every):
    """Worker-process loop: one request per message, heartbeats aside.

    A daemon thread beats every ``heartbeat_seconds`` so a worker deep
    in a slow request still looks alive; a ``stall_after`` directive
    suppresses the beats for the stall's duration (a frozen process is
    silent *everywhere*, not just on its result queue).  A
    ``crash_after`` directive is honoured at the request *boundary* —
    the SIGKILL fires before any of the doomed request's work (or acks)
    run, so the parent's journal sees a cleanly open request, never a
    torn acknowledgement.
    """
    import os
    import signal
    import threading

    from repro.resil.migrate import pack_worker

    beating = threading.Event()
    beating.set()

    def pulse():
        while True:
            if beating.is_set():
                outbox.put({"type": "heartbeat", "worker": worker_id})
            time.sleep(heartbeat_seconds)

    threading.Thread(target=pulse, daemon=True).start()

    picked_up = 0
    completed = 0
    while True:
        item = inbox.get()
        if item is None:
            return
        index, payload, tags = item
        picked_up += 1
        if directive is not None:
            if directive.crash_after is not None \
                    and picked_up == directive.crash_after:
                os.kill(os.getpid(), signal.SIGKILL)
            if directive.stall_after is not None \
                    and picked_up == directive.stall_after:
                beating.clear()
                time.sleep(directive.stall_seconds)
                beating.set()
        started = time.perf_counter()
        summary, machine = run_worker(config, worker_id, [(payload, tags)])
        finished = time.perf_counter()
        completed += 1
        outbox.put({
            "type": "done",
            "index": index,
            "worker": worker_id,
            "started": started,
            "finished": finished,
            "served": summary["served"] or 0,
            "quarantined": summary["quarantined"],
            "alerts": len(summary["alerts"]),
            "fatal": summary["error"] is not None,
            "incidents": summary["incidents"],
        })
        if replicate_every and completed % replicate_every == 0:
            blob = pack_worker(machine, watermark=index,
                               reason="replicate")
            outbox.put({
                "type": "replica",
                "worker": worker_id,
                "watermark": index,
                "blob": blob,
            })


class SupervisedFleet:
    """Crash-supervised multiprocessing serving over one frontend."""

    def __init__(self, config: Optional[FleetConfig] = None, *,
                 workers: int = 2, seed: int = 0, routing: str = "hash",
                 shed_limit: Optional[int] = None,
                 supervision: Optional[SupervisionConfig] = None,
                 chaos: Optional[ChaosSchedule] = None) -> None:
        if workers <= 0:
            raise ValueError("a fleet needs at least one worker")
        self.config = config or FleetConfig()
        self.initial_workers = workers
        self.seed = seed
        self.routing = routing
        self.shed_limit = shed_limit
        self.supervision = supervision or SupervisionConfig()
        self.chaos = chaos

    # -- internals -------------------------------------------------------

    def _spawn(self, ctx, wid, outbox):
        directive = (self.chaos.directives.get(wid)
                     if self.chaos is not None else None)
        inbox = ctx.Queue()
        proc = ctx.Process(
            target=_supervised_worker,
            args=(self.config, wid, inbox, outbox, directive,
                  self.supervision.heartbeat_seconds,
                  self.supervision.replicate_every),
            daemon=True)
        proc.start()
        return {"proc": proc, "inbox": inbox,
                "last_seen": time.perf_counter(), "dead": False}

    def run(self, requests: Sequence[Tuple[int, bytes, Optional[bytes], str]],
            *, arrivals: Optional[Dict[int, float]] = None,
            time_scale: float = 1e6) -> Dict:
        """Serve ``(index, payload, tags, kind)`` tuples supervised.

        ``arrivals`` maps request index to a cycle stamp; when given,
        submissions are paced at ``arrival / time_scale`` seconds after
        the epoch (the wall-clock arm's open-loop schedule).  Returns a
        JSON-ready report; wall-clock numbers are real and therefore
        not gateable — the exactly-once accounting is.
        """
        import multiprocessing as mp

        from repro.serve.simclock import percentile

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = mp.get_context("spawn")

        # Warm the process-wide compile caches pre-fork.
        from repro.fleet.driver import build_worker

        build_worker(self.config, "sup-warm")

        sup = self.supervision
        frontend = FleetFrontend(
            [f"w{i}" for i in range(self.initial_workers)],
            policy=self.routing, seed=self.seed,
            shed_limit=self.shed_limit)
        outbox = ctx.Queue()
        fleet: Dict[str, Dict] = {
            wid: self._spawn(ctx, wid, outbox) for wid in frontend.order
        }
        journal = RequestJournal()
        store = ReplicaStore()
        sent: Dict[int, Tuple[bytes, Optional[bytes], str]] = {}
        completions: Dict[int, Dict] = {}
        recoveries: List[Dict] = []
        evidence_recovered: List[Dict] = []
        shed = 0
        next_worker = self.initial_workers
        epoch = time.perf_counter()

        def handle(msg) -> None:
            wid = msg["worker"]
            state = fleet.get(wid)
            if state is not None:
                state["last_seen"] = time.perf_counter()
            if msg["type"] == "heartbeat":
                return
            if msg["type"] == "replica":
                store.store(Replica(
                    worker=wid, watermark=msg["watermark"],
                    evidence=sum(
                        c["quarantined"] for c in completions.values()
                        if c["worker"] == wid),
                    time=time.perf_counter() - epoch,
                    blob=msg["blob"]))
                return
            # done
            index = msg["index"]
            if journal.complete(index, "done"):
                completions[index] = msg
                # Outstanding-depth bookkeeping: one completion frees
                # one queued slot entry (admission control keys off it).
                owner_slot = frontend.slots.get(journal.owner(index) or "")
                if owner_slot is not None and owner_slot.queue:
                    owner_slot.queue.pop(0)

        def drain(timeout: float) -> None:
            try:
                handle(outbox.get(timeout=timeout))
            except Empty:
                pass

        def detect_and_recover() -> None:
            nonlocal next_worker
            now = time.perf_counter()
            for wid in list(fleet):
                state = fleet[wid]
                if state["dead"]:
                    continue
                silent = now - state["last_seen"] > sup.detection_seconds
                crashed = not state["proc"].is_alive()
                if not crashed and not silent:
                    continue
                failed_at = state["last_seen"]
                state["dead"] = True
                frontend.eject(wid, "crash" if crashed else "stall")
                # Rehydrate the last replicated blob: this exercises
                # the real SHFTMIG1 path and recovers the quarantine
                # evidence the dead worker had already banked.
                replica = store.latest(wid)
                evidence: List[Dict] = []
                new_wid = f"w{next_worker}"
                next_worker += 1
                if replica is not None and replica.blob is not None:
                    _machine, evidence = recover_from_replica(
                        replica, self.config, new_wid)
                    evidence_recovered.extend(evidence)
                frontend.add_worker(new_wid)
                fleet[new_wid] = self._spawn(ctx, new_wid, outbox)
                open_ids = journal.open_for(wid)
                journal.reassign(open_ids, new_wid)
                for index in open_ids:
                    payload, tags, _kind = sent[index]
                    frontend.slots[new_wid].queue.append(payload)
                    fleet[new_wid]["inbox"].put((index, payload, tags))
                recoveries.append({
                    "worker": wid,
                    "replacement": new_wid,
                    "cause": "crash" if crashed else "stall",
                    "detected_after": round(now - failed_at, 3),
                    "watermark": (replica.watermark
                                  if replica is not None else -1),
                    "evidence": len(evidence),
                    "replayed": len(open_ids),
                })

        try:
            for index, payload, tags, kind in requests:
                if arrivals is not None:
                    target = epoch + arrivals.get(index, 0.0) / time_scale
                    while True:
                        remaining = target - time.perf_counter()
                        if remaining <= 0:
                            break
                        drain(min(remaining, sup.poll_seconds))
                        detect_and_recover()
                shed_before = frontend.rejected
                wid = frontend.submit(payload)
                if wid is None:
                    if frontend.rejected > shed_before:
                        shed += 1
                    continue
                if fleet[wid]["dead"]:
                    # Routed to a corpse between detection passes: the
                    # journal will replay it, but prefer a live target.
                    live = [w for w in frontend.routable_ids
                            if w in fleet and not fleet[w]["dead"]]
                    if live:
                        wid = min(live,
                                  key=lambda w: len(frontend.slots[w].queue))
                sent[index] = (payload, tags, kind)
                journal.admit(index, wid)
                fleet[wid]["inbox"].put((index, payload, tags))
                drain(0.001)
                detect_and_recover()

            deadline = time.perf_counter() + sup.result_timeout
            while journal.open_count > 0:
                if time.perf_counter() > deadline:
                    break
                drain(sup.poll_seconds)
                detect_and_recover()
            # Late zombie acknowledgements that already arrived should
            # show up as suppressed duplicates, not vanish unread.
            while True:
                try:
                    handle(outbox.get_nowait())
                except Empty:
                    break
        finally:
            for state in fleet.values():
                try:
                    state["inbox"].put(None)
                except Exception:
                    pass
            for state in fleet.values():
                state["proc"].join(timeout=5.0)
                if state["proc"].is_alive():
                    state["proc"].terminate()

        wall_seconds = time.perf_counter() - epoch
        served = sum(c["served"] for c in completions.values())
        quarantined = sum(c["quarantined"] for c in completions.values())
        attacks = detected = false_alerts = 0
        latencies: List[float] = []
        for index, done in completions.items():
            _payload, _tags, kind = sent[index]
            latencies.append(done["finished"] - done["started"])
            if kind == "clean":
                false_alerts += done["alerts"]
            else:
                attacks += 1
                if done["quarantined"] or done["fatal"]:
                    detected += 1
        lat_ms = sorted(v * 1e3 for v in latencies)
        return {
            "mode": "supervised",
            "workers": self.initial_workers,
            "workers_final": sum(1 for s in fleet.values()
                                 if not s["dead"]),
            "requests": len(requests),
            "shed": shed,
            "completed": len(completions),
            "served": served,
            "quarantined": quarantined,
            "attacks": attacks,
            "detected": detected,
            "false_alerts": false_alerts,
            "journal": journal.to_dict(),
            "recoveries": recoveries,
            "evidence_recovered": len(evidence_recovered),
            "replication": store.to_dict(),
            "wall_seconds": round(wall_seconds, 3),
            "latency_ms": {
                "p50": round(percentile(lat_ms, 50.0), 3),
                "p95": round(percentile(lat_ms, 95.0), 3),
                "p99": round(percentile(lat_ms, 99.0), 3),
                "mean": (round(sum(lat_ms) / len(lat_ms), 3)
                         if lat_ms else 0.0),
            },
        }
