"""repro.chaos: seeded failure injection and the machinery to survive it.

The serving stack through PR 7 assumed workers fail *politely*: an
alert is caught, a fault rolls back, a drained worker migrates its
queue before retiring.  This package drops that assumption.  A
:class:`~repro.chaos.schedule.ChaosSchedule` injects fail-stop crashes
(real ``SIGKILL`` in the multiprocessing arm, simulated fail-stop
events in the serving loop), worker stalls long enough to be declared
dead, and wire-frame corruption/drops — all derived from one seed, so
every campaign trial replays bit-identically.

Surviving it takes three cooperating pieces:

* :class:`~repro.chaos.journal.RequestJournal` — the frontend's
  exactly-once memory: first completion wins, replays are deduped,
  zombies are suppressed, and ``open_count == 0`` at end of run is the
  zero-lost-requests invariant.
* :class:`~repro.chaos.replica.ReplicaStore` — periodic replication of
  each worker's delta-checkpoint chain to the frontend as ``SHFTMIG1``
  blobs with a request-index watermark, so a replacement rehydrates
  state and quarantine evidence instead of starting cold.
* graceful degradation in :class:`~repro.fleet.frontend.FleetFrontend`
  — admission control sheds load above a depth bound with explicit
  503-style rejections, and corrupt frames are retransmitted with
  bounded backoff before being ejected.

``python -m repro.harness.suites chaos`` runs the seeded crash campaigns
and emits ``BENCH_chaos.json``.
"""

from repro.chaos.journal import RequestJournal
from repro.chaos.replica import (
    RecoveryPolicy,
    Replica,
    ReplicaStore,
    recover_from_replica,
)
from repro.chaos.schedule import ChaosEvent, ChaosSchedule, WorkerChaos

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "RecoveryPolicy",
    "Replica",
    "ReplicaStore",
    "RequestJournal",
    "WorkerChaos",
    "recover_from_replica",
]
