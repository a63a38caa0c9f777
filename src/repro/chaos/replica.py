"""Checkpoint replication: worker delta chains parked at the frontend.

PR 7's live migration packs a worker's delta-checkpoint chain into a
self-describing ``SHFTMIG1`` blob; chaos tolerance turns that one-shot
transport into a *standing replication stream*.  Every
``replicate_every`` completed requests, a worker packs its chain —
O(touched pages), thanks to the COW deltas — and ships the blob to the
frontend tagged with a **request-index watermark**: the highest request
index whose effects (responses, quarantine evidence, console output)
the blob provably contains.  The frontend's :class:`ReplicaStore` keeps
only the newest blob per live worker, so holding a whole fleet's
insurance costs one blob per worker, not a history: a worker's blob
goes when it retires, migrates away or is ejected, and when its
replacement has read it after a crash.

When a worker dies, recovery is mechanical: build a twin, rehydrate it
from the last blob (:func:`recover_from_replica`), and replay only the
journal's open set — requests past the watermark that never completed.
Evidence below the watermark (quarantine incidents, console bytes)
rides inside the blob; completions above it are the journal's problem,
which is exactly the split that makes recovery exactly-once.

The store itself is deterministic bookkeeping shared by the simulated
serving loop (blob-less entries priced from the measured blob size) and
the multiprocessing arm (real blobs over real queues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Replica", "ReplicaStore", "RecoveryPolicy",
           "recover_from_replica"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Failure-detection and replication tuning for one serving run."""

    #: Cycles between worker heartbeats (simulated arm) — the detector's
    #: sampling period.
    heartbeat_interval: float = 10_000.0
    #: Consecutive missed heartbeats before a worker is declared dead.
    miss_threshold: int = 3
    #: Completed requests between checkpoint replications (0 = never).
    replicate_every: int = 4
    #: Cycles a worker is busy packing + shipping one replica (the
    #: steady-state price of the insurance).
    replication_cycles: float = 20_000.0
    #: Cycles to rehydrate a replacement from a blob, on top of boot;
    #: None prices it from the measured migration blob.
    rehydrate_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        if self.replicate_every < 0 or self.replication_cycles < 0:
            raise ValueError("replication knobs must be non-negative")

    @property
    def detection_cycles(self) -> float:
        """Worst-case cycles from silent death to declared death."""
        return self.heartbeat_interval * self.miss_threshold

    def rehydrate_cost(self, service) -> float:
        """Cycles to rehydrate a replacement from a blob, on top of boot.

        ``rehydrate_cycles`` when set, else ``service``'s measured
        ``migration_cycles`` (pack, ship and rehydrate one worker).
        """
        if self.rehydrate_cycles is not None:
            return self.rehydrate_cycles
        return service.migration_cycles


@dataclass(frozen=True)
class Replica:
    """One worker's newest replicated checkpoint at the frontend."""

    worker: str
    #: Highest request index whose effects the blob contains (-1 = a
    #: boot-state blob from before the worker served anything).
    watermark: int
    #: Quarantine incidents the blob carries (evidence continuity).
    evidence: int = 0
    #: Capture stamp: simulated cycles (sim arm) or perf_counter (mp).
    time: float = 0.0
    #: The actual SHFTMIG1 wire blob; None in the simulated arm, where
    #: size is priced from the measured migration blob instead.
    blob: Optional[bytes] = None

    @property
    def blob_bytes(self) -> int:
        return len(self.blob) if self.blob is not None else 0


class ReplicaStore:
    """Newest-blob-per-worker replication sink at the frontend."""

    def __init__(self) -> None:
        self._latest: Dict[str, Replica] = {}
        #: Replications accepted (including superseded ones).
        self.stored = 0
        #: Stale replications refused (watermark at or below the held one).
        self.stale = 0
        #: Total blob bytes ever shipped (wire cost of the insurance).
        self.bytes_shipped = 0

    def store(self, replica: Replica) -> bool:
        """Accept a replica; False when it does not advance the watermark."""
        held = self._latest.get(replica.worker)
        if held is not None and replica.watermark <= held.watermark:
            self.stale += 1
            return False
        self._latest[replica.worker] = replica
        self.stored += 1
        self.bytes_shipped += replica.blob_bytes
        return True

    def latest(self, worker: str) -> Optional[Replica]:
        return self._latest.get(worker)

    def drop(self, worker: str) -> None:
        """Forget a worker's replica: it left the fleet (retired,
        migrated away or ejected), or its replacement has read it."""
        self._latest.pop(worker, None)

    @property
    def workers(self) -> List[str]:
        return sorted(self._latest)

    def to_dict(self) -> Dict:
        return {
            "stored": self.stored,
            "stale": self.stale,
            "bytes_shipped": self.bytes_shipped,
            "held": {
                wid: {"watermark": rep.watermark,
                      "evidence": rep.evidence,
                      "blob_bytes": rep.blob_bytes}
                for wid, rep in sorted(self._latest.items())
            },
        }


def recover_from_replica(replica: Replica, config, worker_id: str):
    """Rehydrate a replacement worker machine from a replica blob.

    Builds a twin from the shared fleet configuration, applies the blob
    (fingerprint- and CRC-checked by :mod:`repro.resil.migrate`), and
    returns ``(machine, evidence)`` where ``evidence`` lists the
    quarantine incidents the blob carried — the forensic history that
    must survive the crash.  Raises when the replica has no blob (the
    simulated arm never calls this).
    """
    from repro.fleet.driver import build_worker
    from repro.resil.migrate import rehydrate_worker

    if replica.blob is None:
        raise ValueError("replica carries no blob to recover from")
    machine = build_worker(config, worker_id)
    rehydrate_worker(replica.blob, machine)
    sup = machine.resil
    evidence = [] if sup is None else [
        {"request_index": inc.request_index, "reason": inc.reason,
         "policy_id": inc.policy_id, "worker": inc.worker or replica.worker}
        for inc in sup.incidents
    ]
    return machine, evidence
