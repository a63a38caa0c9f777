"""Taint-range summaries for speculative guarding (repro.spec).

A :class:`TaintWatch` is a point-in-time digest of the taint bitmap:
the set of *data* virtual-address ranges whose granules carry taint,
coarsened to tag-byte resolution and merged.  The speculative fast
path installs the ranges on the core (``cpu.spec_ranges``) so every
load/store pays one O(ranges) containment check — ranges is small by
construction (entry is refused above ``max_ranges``), so the guard is
a handful of integer compares per access on the host, and free in
simulated cycles (a real design point: the paper's ALAT-style range
registers check in parallel with the TLB).

Only data ranges are watched.  The fast copy carries no
instrumentation, so it never addresses tag space; host-side taint
mutations (memcpy summaries, ``recv`` imports, sources, ``free``)
funnel through :attr:`repro.taint.bitmap.TaintMap.mutation_hook` and
are judged against the same ranges by the controller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.mem.address import (
    IMPL_BITS,
    IMPL_MASK,
    make_address,
    region_of,
    tag_space_limit,
)
from repro.mem.memory import PAGE_BITS

#: Matches maximal runs of nonzero bytes in one tag page.
_NONZERO_RUNS = re.compile(rb"[^\x00]+")

#: Bits of data covered by one tag byte: 8 data bytes at byte
#: granularity (one tag bit per byte), 8 data bytes at word
#: granularity (one tag byte per 8-byte word).  Identical by a happy
#: accident of the encoding, which keeps the scan granularity-blind.
_DATA_BYTES_PER_TAG_BYTE_SHIFT = 3


@dataclass
class TaintWatch:
    """Merged tainted-address ranges plus a tainted-register summary."""

    #: Half-open ``(lo, hi)`` *virtual* data ranges, sorted, for the
    #: core's per-access guard.
    ranges: List[Tuple[int, int]] = field(default_factory=list)
    #: The same ranges in *linearized* form (region folded into the
    #: high bits), for judging tag-space mutation offsets.
    linear_ranges: List[Tuple[int, int]] = field(default_factory=list)
    #: Total data bytes covered by the ranges.
    guarded_bytes: int = 0
    #: Registers carrying taint (NaT) at build time.  Entry requires
    #: quiescent registers, so this is empty for every live epoch; it
    #: exists so the summary is complete as a data structure.
    tainted_regs: Tuple[int, ...] = ()

    @classmethod
    def build(cls, machine, max_ranges: int) -> Optional["TaintWatch"]:
        """Scan the tag bitmap into a watch; None when too fragmented.

        Walks only region-0 tag pages (the same filter as the metrics
        bitmap-population scan), finds nonzero byte runs per page, and
        widens each run to the data bytes its tag bytes cover — a
        sound superset: a partially tainted tag byte guards all 8 of
        its data bytes, trading rare over-trips for a scan that never
        inspects individual bits.
        """
        taint_map = machine.taint_map
        if taint_map.flat:
            # Flat tag translation aliases all regions onto one tag
            # arena (an ablation mode); tag offsets cannot be mapped
            # back to unique data addresses, so never speculate.
            return None
        limit = tag_space_limit(taint_map.granularity)
        spans: List[Tuple[int, int]] = []
        for page_no, page in machine.memory.iter_pages():
            base = page_no << PAGE_BITS
            if region_of(base) != 0 or base >= limit:
                continue
            for match in _NONZERO_RUNS.finditer(bytes(page)):
                tag_lo = base + match.start()
                tag_hi = base + match.end()
                spans.append((tag_lo << _DATA_BYTES_PER_TAG_BYTE_SHIFT,
                              tag_hi << _DATA_BYTES_PER_TAG_BYTE_SHIFT))
            if len(spans) > 4 * max_ranges:
                # Merging can only shrink the list 4x here (spans from
                # one page are already maximal runs); bail early.
                return None
        spans.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        if len(merged) > max_ranges:
            return None
        watch = cls()
        watch.linear_ranges = merged
        watch.guarded_bytes = sum(hi - lo for lo, hi in merged)
        for lo, hi in merged:
            watch.ranges.extend(_delinearize(lo, hi))
        watch.ranges.sort()
        return watch

    # -- queries -----------------------------------------------------------

    def contains_linear(self, lo: int, hi: int) -> bool:
        """True when linearized [lo, hi) lies fully inside one range."""
        for rlo, rhi in self.linear_ranges:
            if rlo <= lo and hi <= rhi:
                return True
            if rlo > lo:
                break
        return False

    def intersects(self, lo: int, hi: int) -> bool:
        """True when *virtual* [lo, hi) overlaps any watched range."""
        for rlo, rhi in self.ranges:
            if rlo < hi and lo < rhi:
                return True
        return False


def _delinearize(lo: int, hi: int) -> List[Tuple[int, int]]:
    """Split a linear data range into per-region virtual ranges."""
    out: List[Tuple[int, int]] = []
    while lo < hi:
        region = lo >> IMPL_BITS
        region_end = (region + 1) << IMPL_BITS
        piece_hi = min(hi, region_end)
        out.append((make_address(region, lo & IMPL_MASK),
                    make_address(region, (piece_hi - 1) & IMPL_MASK) + 1))
        lo = piece_hi
    return out
