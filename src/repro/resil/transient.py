"""Seeded deterministic transient device errors.

A :class:`TransientErrorInjector` attached to ``machine.net.faults`` or
``machine.fs.faults`` makes individual I/O *attempts* fail (or reads
come back short) according to a seeded :class:`CampaignRng` stream — no
wall-clock, no host randomness, so every campaign trial replays
exactly.  The I/O natives absorb transients with a bounded
retry-with-backoff loop (see ``GuestOS._retry_io``); an injector is
deliberately **not** part of a
:class:`~repro.resil.checkpoint.MachineCheckpoint`, so a rollback does
not rewind the error stream and replay the same transient forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

_MASK64 = (1 << 64) - 1
_MUL = 6364136223846793005
_INC = 1442695040888963407


class CampaignRng:
    """Seeded 64-bit LCG: the fault campaign's and the transient-error
    injector's only randomness source (replayable)."""

    def __init__(self, seed: int) -> None:
        self._state = (seed or 1) & _MASK64

    def uniform(self) -> float:
        """Next sample in [0, 1)."""
        self._state = (self._state * _MUL + _INC) & _MASK64
        return ((self._state >> 33) & 0x7FFFFFFF) / float(1 << 31)

    def randrange(self, n: int) -> int:
        """Next integer in [0, n)."""
        return int(self.uniform() * n) if n > 1 else 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient failures.

    The guest I/O natives have always retried transients this way
    (``GuestOS._retry_io`` with the :class:`DeviceCosts` knobs); the
    fleet wire layer reuses the same shape for frame retransmission and
    send/recv hiccups, so one policy object describes "how patient is
    this component" everywhere.  ``limit`` bounds the retries (the
    original attempt is free), ``backoff(i)`` prices the wait before
    retry *i* in cycles.
    """

    limit: int = 4
    backoff_base: float = 2_000.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError("retry limit must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and growing")

    def backoff(self, retry: int) -> float:
        """Cycles to wait before the given retry (0-based)."""
        return self.backoff_base * self.backoff_factor ** retry


class TransientErrorInjector:
    """Deterministic per-attempt transient failures and short reads.

    ``fail_rate`` is the probability that any single I/O attempt raises
    a transient error (retried by the native); ``truncate_rate`` is the
    probability that a file read is delivered short.  ``max_failures``
    bounds the total number of injected failures (None = unbounded).
    """

    def __init__(self, seed: int = 1, *, fail_rate: float = 0.0,
                 truncate_rate: float = 0.0,
                 max_failures: int = None) -> None:
        self._rng = CampaignRng(seed)
        self.fail_rate = fail_rate
        self.truncate_rate = truncate_rate
        self.max_failures = max_failures
        self.injected_failures = 0
        self.injected_truncations = 0
        self.by_op: Dict[str, int] = {}

    def transient(self, op: str) -> bool:
        """True when this I/O attempt should fail transiently."""
        if self.fail_rate <= 0.0:
            return False
        if (self.max_failures is not None
                and self.injected_failures >= self.max_failures):
            return False
        if self._rng.uniform() >= self.fail_rate:
            return False
        self.injected_failures += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        return True

    def truncated_length(self, op: str, length: int) -> int:
        """Possibly-shortened delivery length for a read of ``length``."""
        if length <= 1 or self.truncate_rate <= 0.0:
            return length
        if self._rng.uniform() >= self.truncate_rate:
            return length
        cut = 1 + int(self._rng.uniform() * (length - 1))
        self.injected_truncations += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        return min(cut, length)
