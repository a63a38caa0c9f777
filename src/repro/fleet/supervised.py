"""The process runtime: worker Machines in real OS processes, supervised.

:class:`SupervisedFleet` is the only code in ``repro`` that starts a
process.  Workers start with the ``spawn`` method (forking a parent
that runs queue feeder threads is unsafe) and all run one loop: each
inbox message is a batch of encoded requests, served by
:func:`repro.fleet.driver.run_worker` and answered with its summary.
Each worker answers on its own one-way pipe, so a worker killed in the
middle of writing an answer tears only its own channel: the parent
reads end-of-file there, and every other worker's answers still flow.
A daemon thread heartbeats from the moment a worker starts, and every
:data:`REPLICATE_EVERY` answers the worker ships its packed machine
state (a real ``SHFTMIG1`` blob, watermarked with the message index)
to the parent.  Two entry points feed the loop:
:meth:`SupervisedFleet.run` paces an open-loop workload in wall time,
one request per message, routed by session affinity as
:class:`~repro.serve.simclock.ServeSim` routes it; and
:meth:`SupervisedFleet.run_batches` sends each worker one pre-routed
batch, which is how ``FleetDriver.run(processes=True)`` matches the
in-process digest.

The parent runs the failure detector: a worker is dead when its
process has exited or its channel has closed, *or* its heartbeats go
silent for :data:`DETECTION_SECONDS`, timed from its first heartbeat so
a spawned interpreter that is still importing never reads as a stall.
Recovery rehydrates a replacement from the dead worker's last
replicated blob
(:func:`repro.chaos.replica.recover_from_replica`, so banked
quarantine evidence survives), joins a new process to the rotation via
:meth:`FleetFrontend.add_worker`, and resends exactly the request-id
journal's open set for the dead worker: completed work never re-runs,
in-flight work is never lost.

Chaos directives (:class:`repro.chaos.schedule.WorkerChaos`) make the
failures real: ``crash_after=N`` has the worker ``SIGKILL`` itself the
moment it picks up its Nth message — a fail-stop at a request
boundary, the crash model the simulated arm injects — and
``stall_after`` freezes it past the detector's patience, after which
its late answers arrive anyway and the journal suppresses them (a real
zombie).  Wall-clock results are not bit-reproducible; the gateable
version of this story is :mod:`repro.serve.simclock`, and this module
is its reality check.
"""

from __future__ import annotations

import hashlib
import time
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.chaos.journal import RequestJournal
from repro.chaos.replica import Replica, ReplicaStore, recover_from_replica
from repro.chaos.schedule import ChaosSchedule
from repro.fleet.driver import EncodedRequest, FleetConfig, run_worker
from repro.fleet.frontend import FleetFrontend

if TYPE_CHECKING:
    from repro.serve.loadgen import ServeRequest

__all__ = ["SupervisedFleet"]

#: Seconds between worker heartbeats.
HEARTBEAT_SECONDS = 0.25
#: Missed heartbeats before a silent worker is declared dead.
MISS_THRESHOLD = 4
#: Worst-case silence before a worker is declared dead.
DETECTION_SECONDS = HEARTBEAT_SECONDS * MISS_THRESHOLD
#: Answered messages between blob replications.
REPLICATE_EVERY = 2
#: Parent poll granularity while supervising.
POLL_SECONDS = 0.05
#: Seconds the parent waits for the workers to warm up, and for
#: outstanding answers after the last submission (a chaos run must
#: still terminate).
RESULT_TIMEOUT = 120.0


def _worker_main(config: FleetConfig, worker_id: str, inbox, channel,
                 directive) -> None:
    """Worker-process loop: serve one batch per inbox message until None.

    The heartbeat thread starts first, before the worker pays for its
    first compile and boot, and beats throughout so a worker deep in a
    slow batch still looks alive; a ``stall_after`` directive suppresses
    the beats for the stall's duration (a frozen process is silent
    *everywhere*, not just on its answers).  The heartbeat thread and
    the serving loop take turns on ``channel``, the worker's write end
    of its answer pipe, so their frames never interleave.  A
    ``crash_after`` directive is honoured at the message *boundary* —
    the SIGKILL fires before any of the doomed message's work (or
    answers) run, so the parent's journal sees a cleanly open request,
    never a torn one.
    """
    import os
    import signal
    import threading

    beating = threading.Event()
    beating.set()
    writing = threading.Lock()

    def answer(msg: Dict) -> None:
        with writing:
            channel.send(msg)

    def pulse() -> None:
        while True:
            if beating.is_set():
                answer({"type": "heartbeat", "worker": worker_id})
            time.sleep(HEARTBEAT_SECONDS)

    threading.Thread(target=pulse, daemon=True).start()

    from repro.resil.migrate import pack_worker

    run_worker(config, worker_id, [])  # compile and boot once, up front
    answer({"type": "ready", "worker": worker_id})
    picked_up = 0
    while True:
        item = inbox.get()
        if item is None:
            return
        index, batch = item
        picked_up += 1
        if directive is not None:
            if picked_up == directive.crash_after:
                os.kill(os.getpid(), signal.SIGKILL)
            if picked_up == directive.stall_after:
                beating.clear()
                time.sleep(directive.stall_seconds)
                beating.set()
        started = time.perf_counter()
        summary, machine = run_worker(config, worker_id, batch)
        answer({"type": "done", "index": index, "worker": worker_id,
                "started": started, "finished": time.perf_counter(),
                "summary": summary})
        if picked_up % REPLICATE_EVERY == 0:
            answer({"type": "replica", "worker": worker_id,
                    "watermark": index,
                    "blob": pack_worker(machine, watermark=index,
                                        reason="replicate")})


def _outcome(summary: Dict) -> str:
    """A one-request summary's outcome, in ServeSim's vocabulary."""
    if summary["error"] is not None:
        return "fatal"
    if summary["quarantined"]:
        return "quarantined"
    return "served" if summary["served"] else "noop"


class _Run:
    """One supervised run: the worker processes and the recovery books."""

    def __init__(self, fleet: SupervisedFleet) -> None:
        import multiprocessing

        self.config = fleet.config
        self.chaos = fleet.chaos
        self.ctx = multiprocessing.get_context("spawn")
        self.frontend = FleetFrontend(
            [f"w{i}" for i in range(fleet.initial_workers)],
            policy=fleet.routing, seed=fleet.seed,
            shed_limit=fleet.shed_limit)
        self.workers: Dict[str, Dict] = {}
        self.journal = RequestJournal()
        self.store = ReplicaStore()
        #: message index -> the batch it carried (what a replay resends).
        self.batches: Dict[int, List[EncodedRequest]] = {}
        #: message index -> its authoritative ``done`` answer.
        self.completions: Dict[int, Dict] = {}
        self.recoveries: List[Dict] = []
        #: Message indices resent to a replacement worker.
        self.replayed: set = set()
        self.evidence_recovered = 0
        self.epoch = time.perf_counter()
        for wid in self.frontend.order:
            self._spawn(wid)

    def _spawn(self, wid: str) -> None:
        directive = (self.chaos.directives.get(wid)
                     if self.chaos is not None else None)
        inbox = self.ctx.Queue()
        answers, channel = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self.config, wid, inbox, channel, directive),
            daemon=True)
        proc.start()
        channel.close()  # the worker holds the only write end
        self.workers[wid] = {"proc": proc, "inbox": inbox,
                             "answers": answers,
                             "spawned": time.perf_counter(),
                             "last_seen": None, "ready": False,
                             "dead": False}

    def send(self, index: int, wid: str,
             batch: List[EncodedRequest]) -> None:
        """Journal one message as owned by ``wid`` and hand it over."""
        self.batches[index] = batch
        self.journal.admit(index, wid)
        self.workers[wid]["inbox"].put((index, batch))

    def _handle(self, msg: Dict) -> None:
        wid = msg["worker"]
        state = self.workers[wid]
        state["last_seen"] = time.perf_counter()
        if msg["type"] == "ready":
            state["ready"] = True
        elif msg["type"] == "replica":
            self.store.store(Replica(
                worker=wid, watermark=msg["watermark"],
                evidence=sum(done["summary"]["quarantined"]
                             for done in self.completions.values()
                             if done["worker"] == wid),
                time=state["last_seen"] - self.epoch, blob=msg["blob"]))
        elif (msg["type"] == "done"
              and self.journal.complete(msg["index"], "done")):
            self.completions[msg["index"]] = msg
            # One answer frees one queued entry at the request's owner
            # (admission control and least-loaded routing read depths).
            queue = self.frontend.slots[
                self.journal.owner(msg["index"])].queue
            if queue:
                queue.pop(0)

    def _drain(self, timeout: float) -> None:
        """Handle every message that arrives within ``timeout``.

        A channel at end of file, or torn by a worker killed mid-frame,
        is closed and dropped: its worker is gone.
        """
        from multiprocessing.connection import wait

        channels = {state["answers"]: state
                    for state in self.workers.values()
                    if state["answers"] is not None}
        ready = wait(list(channels), timeout)
        while ready:
            for answers in ready:
                try:
                    msg = answers.recv()
                except (EOFError, OSError):
                    answers.close()
                    channels.pop(answers)["answers"] = None
                    continue
                self._handle(msg)
            ready = wait(list(channels), 0)

    def poll(self, timeout: float) -> None:
        """Handle pending messages, then run the failure detector."""
        self._drain(timeout)
        now = time.perf_counter()
        for wid, state in list(self.workers.items()):
            if state["dead"]:
                continue
            crashed = (state["answers"] is None
                       or not state["proc"].is_alive())
            silent = (state["last_seen"] is not None
                      and now - state["last_seen"] > DETECTION_SECONDS)
            if crashed or silent:
                self._recover(wid, "crash" if crashed else "stall", now)

    def _recover(self, wid: str, cause: str, now: float) -> None:
        state = self.workers[wid]
        state["dead"] = True
        orphans = self.frontend.eject(wid, cause)
        # Rehydrate the last replicated blob: this exercises the real
        # SHFTMIG1 path and recovers the quarantine evidence the dead
        # worker had already banked.
        replica = self.store.latest(wid)
        new_wid = f"w{len(self.workers)}"
        evidence = 0
        if replica is not None:
            _machine, found = recover_from_replica(
                replica, self.config, new_wid)
            evidence = len(found)
        self.evidence_recovered += evidence
        self.frontend.add_worker(new_wid).queue.extend(orphans)
        self._spawn(new_wid)
        replay = self.journal.reassign(self.journal.open_for(wid), new_wid)
        for index in replay:
            self.workers[new_wid]["inbox"].put((index, self.batches[index]))
        self.replayed.update(replay)
        self.recoveries.append({
            "worker": wid,
            "replacement": new_wid,
            "cause": cause,
            "detected_after": round(
                now - (state["last_seen"] or state["spawned"]), 3),
            "watermark": replica.watermark if replica is not None else -1,
            "evidence": evidence,
            "replayed": len(replay),
        })

    def wait_ready(self) -> None:
        """Supervise until every live worker has warmed up; reset the epoch."""
        deadline = time.perf_counter() + RESULT_TIMEOUT
        while (time.perf_counter() < deadline
               and not all(state["ready"] or state["dead"]
                           for state in self.workers.values())):
            self.poll(POLL_SECONDS)
        self.epoch = time.perf_counter()

    def wait_until(self, offset: float) -> None:
        """Supervise until ``offset`` seconds after the epoch."""
        while True:
            remaining = self.epoch + offset - time.perf_counter()
            if remaining <= 0:
                return
            self.poll(min(remaining, POLL_SECONDS))

    def finish(self) -> None:
        """Supervise until every admitted message is answered (or timeout)."""
        deadline = time.perf_counter() + RESULT_TIMEOUT
        while self.journal.open_count and time.perf_counter() < deadline:
            self.poll(POLL_SECONDS)

    def close(self) -> None:
        """Stop every worker; late answers still count, as duplicates."""
        for state in self.workers.values():
            state["inbox"].put(None)
        # Keep reading while the workers exit: a worker cannot finish
        # while its answers sit unread in a full pipe.
        deadline = time.perf_counter() + 5.0
        while (time.perf_counter() < deadline
               and any(state["proc"].is_alive()
                       for state in self.workers.values())):
            self._drain(POLL_SECONDS)
        for state in self.workers.values():
            if state["proc"].is_alive():
                state["proc"].terminate()
            state["proc"].join()
            if state["answers"] is not None:
                state["answers"].close()


class SupervisedFleet:
    """Crash-supervised worker processes behind one frontend."""

    def __init__(self, config: Optional[FleetConfig] = None, *,
                 workers: int = 2, seed: int = 0, routing: str = "hash",
                 shed_limit: Optional[int] = None,
                 chaos: Optional[ChaosSchedule] = None) -> None:
        if workers <= 0:
            raise ValueError("a fleet needs at least one worker")
        self.config = config or FleetConfig()
        self.initial_workers = workers
        self.seed = seed
        self.routing = routing
        self.shed_limit = shed_limit
        self.chaos = chaos

    def run_batches(
            self, batches: Mapping[str, List[EncodedRequest]]) -> List[Dict]:
        """Serve one pre-routed batch per worker id; their summaries.

        Each batch travels as a single message, so its worker runs
        exactly the request sequence the in-process driver would.
        Summaries come back in ``batches`` order.  Raises
        :class:`RuntimeError` when a batch is still unanswered at the
        deadline.
        """
        run = _Run(self)
        try:
            for index, (wid, batch) in enumerate(batches.items()):
                run.send(index, wid, batch)
            run.finish()
        finally:
            run.close()
        if run.journal.open_count:
            raise RuntimeError(f"{run.journal.open_count} worker batch(es) "
                               f"unanswered after {RESULT_TIMEOUT:.0f} s")
        return [run.completions[i]["summary"] for i in range(len(batches))]

    def run(self, workload: Sequence[ServeRequest], *,
            time_scale: float = 1e6) -> Dict:
        """Serve an open-loop workload paced in wall time; a report dict.

        Each request is submitted ``arrival / time_scale`` seconds
        (``time_scale`` simulated cycles per wall second) after every
        initial worker has warmed up, and sent as a batch of one.  The
        report's ``records`` hold one :class:`~repro.serve.simclock
        .RequestRecord` row per request in wall seconds — enqueue is
        the scheduled arrival, dispatch the worker's pickup, complete
        its answer — so latency includes queueing: a parent or worker
        that falls behind shows in the tail instead of stretching the
        arrival process.  Wall-clock numbers are real and therefore not
        gateable; the exactly-once accounting is.
        """
        from repro.serve.simclock import RequestRecord, percentile

        records: List[RequestRecord] = []
        run = _Run(self)
        try:
            run.wait_ready()
            for request in sorted(workload, key=lambda r: (r.arrival, r.index)):
                enqueue = request.arrival / time_scale
                run.wait_until(enqueue)
                record = RequestRecord(
                    index=request.index, session=request.session,
                    kind=request.kind, enqueue=enqueue)
                records.append(record)
                shed_before = run.frontend.rejected
                wid = run.frontend.submit(request, key=request.affinity)
                if wid is None:
                    record.outcome = ("rejected"
                                      if run.frontend.rejected > shed_before
                                      else "dropped")
                    continue
                run.send(request.index, wid,
                         [(request.payload, request.tags)])
            run.finish()
            wall_seconds = time.perf_counter() - run.epoch
        finally:
            run.close()

        for record in records:
            done = run.completions.get(record.index)
            if done is None:
                continue
            summary = done["summary"]
            spec = summary["spec"] or {}
            record.worker = done["worker"]
            record.dispatch = done["started"] - run.epoch
            record.complete = done["finished"] - run.epoch
            record.service = record.complete - record.dispatch
            record.outcome = _outcome(summary)
            record.policy_ids = tuple(a["policy_id"]
                                      for a in summary["alerts"])
            record.alerts = len(summary["alerts"])
            if summary["responses"]:
                record.response_sha = hashlib.sha256(
                    summary["responses"][0]).hexdigest()
            record.rerouted = record.index in run.replayed
            record.spec_commits = spec.get("commits", 0)
            record.spec_rollbacks = spec.get("rollbacks", 0)

        completed = [r for r in records if r.complete >= 0]
        attacks = [r for r in completed if r.kind != "clean"]
        summaries = [done["summary"] for done in run.completions.values()]
        lat_ms = sorted(r.latency * 1e3 for r in completed)
        return {
            "workers": self.initial_workers,
            "workers_final": run.frontend.healthy_count,
            "requests": len(records),
            "shed": run.frontend.rejected,
            "dropped": run.frontend.dropped,
            "completed": len(completed),
            "served": sum(s["served"] or 0 for s in summaries),
            "quarantined": sum(s["quarantined"] for s in summaries),
            "attacks": len(attacks),
            "detected": sum(1 for r in attacks
                            if r.outcome in ("quarantined", "fatal")),
            "false_alerts": sum(r.alerts for r in completed
                                if r.kind == "clean"),
            "journal": run.journal.to_dict(),
            "recoveries": run.recoveries,
            "evidence_recovered": run.evidence_recovered,
            "replication": run.store.to_dict(),
            "time_scale": time_scale,
            "wall_seconds": round(wall_seconds, 3),
            "throughput_rps": (round(len(completed) / wall_seconds, 3)
                               if wall_seconds else 0.0),
            "latency_ms": {
                "p50": round(percentile(lat_ms, 50.0), 3),
                "p95": round(percentile(lat_ms, 95.0), 3),
                "p99": round(percentile(lat_ms, 99.0), 3),
                "mean": (round(sum(lat_ms) / len(lat_ms), 3)
                         if lat_ms else 0.0),
                "max": round(lat_ms[-1], 3) if lat_ms else 0.0,
            },
            "records": [r.to_dict() for r in records],
        }
