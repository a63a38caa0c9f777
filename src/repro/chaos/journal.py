"""The frontend's request-id journal: exactly-once under failure.

Crash recovery replays work, and replay is where at-least-once systems
quietly become at-most-twice systems.  The journal is the frontend's
authoritative memory of every admitted request id: which worker is
currently responsible for it, and whether it has completed.  Every
completion — from the original owner, from a replacement that replayed
it, or from a stalled zombie that was declared dead and woke up anyway
— goes through :meth:`RequestJournal.complete`, which accepts exactly
the first and suppresses (and counts) every later one.  A crashed
worker's open set (:meth:`open_for`) is precisely what recovery must
replay; when the run ends, :attr:`open_count` == 0 is the no-lost-work
invariant and :attr:`duplicates` > 0 is the dedup machinery visibly
earning its keep.

The journal is plain deterministic bookkeeping — no clock, no
randomness — so it is shared verbatim by the simulated serving loop
and the one process runtime, :mod:`repro.fleet.supervised`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["RequestJournal"]


class RequestJournal:
    """Exactly-once accounting over admitted request ids."""

    def __init__(self) -> None:
        #: request id -> worker currently responsible (None = unassigned).
        self._owner: Dict[int, Optional[str]] = {}
        #: request id -> outcome of its first (authoritative) completion.
        self._outcome: Dict[int, str] = {}
        #: Later completions suppressed per request id.
        self._extra: Dict[int, int] = {}
        #: Requests re-assigned by crash recovery.
        self.replays = 0

    # -- admission / assignment ------------------------------------------

    def admit(self, index: int, worker: Optional[str] = None) -> bool:
        """Record an admitted request; False if the id was seen before."""
        if index in self._owner:
            return False
        self._owner[index] = worker
        return True

    def assign(self, index: int, worker: str) -> None:
        """Record which worker is currently responsible for a request."""
        if index not in self._owner:
            raise KeyError(f"request {index} was never admitted")
        self._owner[index] = worker

    def reassign(self, indices: List[int], worker: str) -> List[int]:
        """Move still-open requests to a replacement worker (replay).

        Already-completed ids are skipped — their work is done, handing
        them to the replacement would manufacture duplicates.  Returns
        the ids actually moved, in input order.
        """
        moved: List[int] = []
        for index in indices:
            if index in self._outcome or index not in self._owner:
                continue
            self._owner[index] = worker
            self.replays += 1
            moved.append(index)
        return moved

    # -- completion -------------------------------------------------------

    def complete(self, index: int, outcome: str = "served") -> bool:
        """Journal one completion; True when it is the authoritative one.

        The first completion of an admitted id wins; every later one —
        a zombie finishing after its replacement, a replayed request
        whose original ack was only delayed — returns False and is
        counted in :attr:`duplicates`.  Completing an id that was never
        admitted raises: that is a bookkeeping bug, not chaos.
        """
        if index not in self._owner:
            raise KeyError(f"request {index} was never admitted")
        if index in self._outcome:
            self._extra[index] = self._extra.get(index, 0) + 1
            return False
        self._outcome[index] = outcome
        return True

    # -- queries ----------------------------------------------------------

    def outcome(self, index: int) -> Optional[str]:
        """The authoritative outcome, or None while still open."""
        return self._outcome.get(index)

    def owner(self, index: int) -> Optional[str]:
        return self._owner.get(index)

    def open_for(self, worker: str) -> List[int]:
        """Admitted, assigned to ``worker``, not yet completed — the
        exact set crash recovery must replay, in admission order."""
        return [index for index, owner in self._owner.items()
                if owner == worker and index not in self._outcome]

    def open_ids(self) -> List[int]:
        """Every admitted id still awaiting its first completion."""
        return [index for index in self._owner
                if index not in self._outcome]

    @property
    def admitted(self) -> int:
        return len(self._owner)

    @property
    def completed(self) -> int:
        return len(self._outcome)

    @property
    def open_count(self) -> int:
        return len(self._owner) - len(self._outcome)

    @property
    def duplicates(self) -> int:
        """Completions suppressed because the id was already done."""
        return sum(self._extra.values())

    @property
    def exactly_once(self) -> bool:
        """True when every admitted request completed exactly once.

        Suppressed duplicates do not violate the invariant — they are
        the mechanism enforcing it; what would violate it is an open
        request at end of run (lost) or a second outcome overwriting
        the first (which :meth:`complete` makes unrepresentable).
        """
        return self.open_count == 0

    def to_dict(self) -> Dict:
        """JSON-ready tallies for reports."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "open": self.open_count,
            "duplicates_suppressed": self.duplicates,
            "replays": self.replays,
            "exactly_once": self.exactly_once,
        }
