"""Set-associative cache timing model.

Only timing is modelled (no data live in the caches); the executor asks
the hierarchy how many *stall* cycles an access costs beyond the base
instruction latency.  Defaults approximate an Itanium 2: 16 KB 4-way L1D,
256 KB 8-way L2, with the paper-relevant property that most taint-bitmap
accesses hit in L1 (paper section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CacheConfig:
    """Geometry of one cache level."""
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_extra_cycles: int = 0  # extra cycles charged on hit at this level

    @property
    def num_sets(self) -> int:
        """Number of sets (must be a power of two)."""
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("cache sets must be a positive power of two")
        return sets


@dataclass
class CacheStats:
    """Access/miss counters of one cache level."""
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """Accesses minus misses."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Misses over accesses."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        #: The predecoded engine's blocks bind ``stats`` and ``_sets``
        #: (they count L1 hits on a set's most recent line inline), so
        #: both are only ever mutated in place.
        self.stats = CacheStats()
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_bytes.bit_length() - 1
        #: Indices of sets holding at least one line.  Occupancy is
        #: monotone under access() (LRU eviction replaces, never
        #: empties), so this only grows — checkpoint capture iterates
        #: it instead of scanning every (mostly empty) set.
        self._occupied: set = set()

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; returns True on hit."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        self.stats.accesses += 1
        try:
            ways.remove(line)
        except ValueError:
            self.stats.misses += 1
            if not ways:
                self._occupied.add(index)
            elif len(ways) >= self.config.ways:
                ways.pop(0)
            ways.append(line)
            return False
        ways.append(line)
        return True


@dataclass
class HierarchyConfig:
    """Itanium-2-shaped three-level data hierarchy (the rx1620 testbed
    pairs a small L1/L2 with a multi-megabyte L3)."""

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(16 * 1024, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * 1024, 8))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(3 * 1024 * 1024, 12))
    l2_latency: int = 10  # stall cycles on L1 miss / L2 hit
    l3_latency: int = 20  # stall cycles on L2 miss / L3 hit
    memory_latency: int = 140  # stall cycles on L3 miss


class CacheHierarchy:
    """Three-level data-cache hierarchy returning stall cycles per access."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)

    def access(self, addr: int, size: int = 1) -> int:
        """Stall cycles for an access (0 on an L1 hit)."""
        if self.l1.access(addr):
            return self.config.l1.hit_extra_cycles
        if self.l2.access(addr):
            return self.config.l2_latency
        if self.l3.access(addr):
            return self.config.l3_latency
        return self.config.memory_latency
