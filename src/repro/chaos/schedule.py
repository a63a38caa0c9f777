"""Seeded, wall-clock-free chaos: fail-stop crashes, stalls, wire damage.

A :class:`ChaosSchedule` is the single source of adversity for one
campaign trial.  It carries three kinds of injections, all derived from
one seed so every trial replays bit-identically:

* **Fail-stop crashes** (:class:`ChaosEvent` kind ``"crash"``): the
  targeted worker dies instantly, taking its in-flight request and its
  local queue with it.  In the simulated serving loop this is a
  deterministic event at a simulated cycle stamp; in the supervised
  multiprocessing arm the directive becomes a real ``SIGKILL`` the
  worker sends itself at a request boundary — no cleanup, no goodbye
  message, exactly what a kernel OOM-kill or a kicked power cord looks
  like to the rest of the fleet.
* **Stalls** (kind ``"stall"``): the worker freezes for ``duration``
  cycles (or wall seconds in the multiprocessing arm) without dying.
  A stall longer than the failure detector's patience produces the
  nastiest distributed-systems case: a *zombie* that is declared dead,
  replaced, and then wakes up and finishes its request anyway — the
  request-id journal must suppress the duplicate.
* **Wire damage**: per-request transmission attempts are corrupted
  (bit flips the CRC catches) or dropped entirely, decided statelessly
  from ``sha256(seed, request, attempt)`` so the decision for request
  *i* does not depend on how many other requests were examined first.

Times are simulated cycles, the same unit as the serving loop; the
schedule never reads a wall clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ChaosEvent", "ChaosSchedule", "WorkerChaos"]

#: Event kinds a schedule may carry.
EVENT_KINDS = ("crash", "stall")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault against one worker."""

    time: float  # simulated cycles into the run
    kind: str  # 'crash' | 'stall'
    worker: str  # target worker id (w0, w1, ...)
    duration: float = 0.0  # stall length in cycles (stalls only)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}; "
                             f"choose from {EVENT_KINDS}")
        if self.kind == "stall" and self.duration <= 0:
            raise ValueError("a stall needs a positive duration")


@dataclass(frozen=True)
class WorkerChaos:
    """Per-process directives for the multiprocessing arm.

    Counts are 1-based positions in the worker's own message stream
    (one request per message in paced serving): ``crash_after=3``
    means the worker SIGKILLs itself the moment it picks up its 3rd
    message, before any of that message's work runs
    (a fail-stop at a request boundary, deterministic no matter how the
    host schedules the processes).
    """

    crash_after: Optional[int] = None  # SIGKILL before serving the Nth
    stall_after: Optional[int] = None  # sleep before serving the Nth
    stall_seconds: float = 0.0


def _u01(seed: int, *parts: object) -> float:
    """Stateless uniform sample in [0, 1) keyed by (seed, parts)."""
    key = b"\x00".join([str(seed).encode()]
                       + [str(p).encode() for p in parts])
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ChaosSchedule:
    """Deterministic adversity for one campaign trial.

    ``events`` are the fail-stop/stall injections; ``corrupt_rate`` and
    ``drop_rate`` are per-transmission-attempt probabilities of a
    damaged or lost frame (decided statelessly per (request, attempt)).
    ``directives`` carries the multiprocessing arm's per-worker
    :class:`WorkerChaos` instructions.
    """

    def __init__(self, events: Sequence[ChaosEvent] = (), *,
                 seed: int = 0, corrupt_rate: float = 0.0,
                 drop_rate: float = 0.0,
                 directives: Optional[Dict[str, WorkerChaos]] = None) -> None:
        if not 0.0 <= corrupt_rate <= 1.0 or not 0.0 <= drop_rate <= 1.0:
            raise ValueError("corruption/drop rates must be in [0, 1]")
        if corrupt_rate + drop_rate > 1.0:
            raise ValueError("corrupt_rate + drop_rate must not exceed 1")
        self.events: Tuple[ChaosEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.worker)))
        self.seed = seed
        self.corrupt_rate = corrupt_rate
        self.drop_rate = drop_rate
        self.directives: Dict[str, WorkerChaos] = dict(directives or {})

    # -- construction ----------------------------------------------------

    @classmethod
    def campaign(cls, seed: int, *, workers: int, duration: float,
                 crashes: int = 1, stalls: int = 0,
                 stall_cycles: float = 0.0,
                 corrupt_rate: float = 0.0,
                 drop_rate: float = 0.0) -> "ChaosSchedule":
        """Generate a seeded schedule over the initial worker set.

        Crash/stall times land strictly inside ``(0.1, 0.9) * duration``
        so an injection never races the very first arrival or fires
        after the workload is already drained; targets walk the initial
        workers round-robin so multi-crash campaigns spread the damage.
        """
        if workers <= 0:
            raise ValueError("a campaign needs at least one worker")
        events: List[ChaosEvent] = []
        total = crashes + stalls
        for i in range(total):
            frac = 0.1 + 0.8 * _u01(seed, "when", i)
            wid = f"w{i % workers}"
            if i < crashes:
                events.append(ChaosEvent(time=frac * duration,
                                         kind="crash", worker=wid))
            else:
                events.append(ChaosEvent(time=frac * duration,
                                         kind="stall", worker=wid,
                                         duration=stall_cycles))
        return cls(events, seed=seed, corrupt_rate=corrupt_rate,
                   drop_rate=drop_rate)

    # -- wire damage -----------------------------------------------------

    def transmit(self, frame: bytes, request: int,
                 attempt: int) -> Optional[bytes]:
        """One transmission attempt of a frame over the chaotic wire.

        Returns the frame unchanged (clean delivery), a deterministically
        corrupted copy (one bit flipped — the CRC will catch it), or
        ``None`` when the frame was dropped outright.  The decision is a
        pure function of ``(seed, request, attempt)``.
        """
        if not frame:
            return frame
        u = _u01(self.seed, "wire", request, attempt)
        if u < self.drop_rate:
            return None
        if u < self.drop_rate + self.corrupt_rate:
            damaged = bytearray(frame)
            pos = int(_u01(self.seed, "pos", request, attempt)
                      * len(damaged))
            bit = int(_u01(self.seed, "bit", request, attempt) * 8)
            damaged[min(pos, len(damaged) - 1)] ^= (1 << bit)
            return bytes(damaged)
        return frame

    def wire_attempts(self, request: int, limit: int) -> int:
        """Failed attempts before a clean delivery (capped at limit+1).

        Convenience for reports: how many retransmissions request
        ``request`` will need under this schedule.
        """
        failed = 0
        while failed <= limit:
            u = _u01(self.seed, "wire", request, failed)
            if u >= self.drop_rate + self.corrupt_rate:
                return failed
            failed += 1
        return failed

    # -- queries ---------------------------------------------------------

    @property
    def crashes(self) -> Tuple[ChaosEvent, ...]:
        return tuple(e for e in self.events if e.kind == "crash")

    @property
    def stalls(self) -> Tuple[ChaosEvent, ...]:
        return tuple(e for e in self.events if e.kind == "stall")

    @property
    def wire_active(self) -> bool:
        """True when the schedule damages frames at all."""
        return (self.corrupt_rate + self.drop_rate) > 0.0

    def describe(self) -> Dict:
        """JSON-ready summary for campaign reports."""
        return {
            "seed": self.seed,
            "crashes": [{"time": round(e.time, 1), "worker": e.worker}
                        for e in self.crashes],
            "stalls": [{"time": round(e.time, 1), "worker": e.worker,
                        "duration": round(e.duration, 1)}
                       for e in self.stalls],
            "corrupt_rate": self.corrupt_rate,
            "drop_rate": self.drop_rate,
            "directives": {
                wid: {"crash_after": d.crash_after,
                      "stall_after": d.stall_after,
                      "stall_seconds": d.stall_seconds}
                for wid, d in sorted(self.directives.items())
            },
        }
