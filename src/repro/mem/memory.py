"""Sparse paged guest memory.

Pages are allocated lazily on first touch, so the huge region-based
address space (including the region-0 tag bitmap) costs host memory only
for the pages actually used.  All accesses are little-endian.

The scalar ``load``/``store`` entry points are on the interpreter's
hottest path (every guest ``ldN``/``stN`` lands here), so they carry a
fast path for accesses that stay inside one page: a one-entry page
cache skips the dict lookup when consecutive accesses touch the same
page (the overwhelmingly common case: stack frames and tag-bitmap
bytes), and the value is packed/unpacked in place with ``struct``
instead of round-tripping through an intermediate ``bytes`` object.

Dirty-page tracking (repro.resil copy-on-write checkpoints): every
mutation — scalar stores from either execution engine, range writes
from the libc fast paths, ``TaintMap`` tag updates, wire-taint imports
— funnels through :meth:`store` or :meth:`write_bytes`, which record
the touched page number in a dirty set.  Loads allocate pages lazily
but never dirty them (a lazily-allocated page is all zeros, i.e.
content-identical to never having existed).  A checkpoint drains the
set with :meth:`begin_epoch`, so a per-request delta captures exactly
the pages written since the last checkpoint; the epoch token lets a
restore prove the live dirty set is relative to *that* checkpoint and
roll back in O(touched) instead of O(state).  The per-store cost is
one integer compare (a one-entry "last dirtied page" cache absorbs
consecutive stores to the same page).  Checkpoints never call the epoch
methods directly: ``repro.resil.checkpoint.adopt_epoch`` moves this set
together with its fd and connection siblings.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Set, Tuple

from repro.mem.address import ADDRESS_MASK, IMPL_MASK, REGION_SHIFT, is_implemented

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

#: Address bits that must be zero (the "unimplemented" hole between the
#: implemented offset and the region number; see repro.mem.address).
_UNIMPL_MASK = ADDRESS_MASK & ~((0x7 << REGION_SHIFT) | IMPL_MASK)

#: Little-endian scalar codecs for the power-of-two access sizes.  A 4 KiB
#: page is entirely implemented or entirely not, so any access that stays
#: within one implemented page needs no per-byte address checking.
_SCALAR = {
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}


class MemoryError_(Exception):
    """Guest-visible memory error (unimplemented address)."""

    def __init__(self, addr: int, reason: str) -> None:
        super().__init__(f"address {addr:#018x}: {reason}")
        self.addr = addr
        self.reason = reason


class SparseMemory:
    """Byte-addressable sparse memory over the 64-bit guest space."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        # One-entry page cache.  Pages are never freed, so a cached
        # reference can never go stale.
        self._cached_pno = -1
        self._cached_page: bytearray = b""  # type: ignore[assignment]
        #: Pages written since the last :meth:`begin_epoch` (the COW
        #: checkpoint working set).  ``_dirty_last`` is a one-entry
        #: cache so a run of stores to one page costs one compare.
        self._dirty: Set[int] = set()
        self._dirty_last = -1
        #: Token naming the checkpoint the dirty set is relative to.
        self.dirty_epoch = 0
        self._epoch_counter = 0

    def _page_for(self, addr: int) -> Tuple[bytearray, int]:
        pno = addr >> PAGE_BITS
        if pno == self._cached_pno:
            return self._cached_page, addr & PAGE_MASK
        page = self._pages.get(pno)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[pno] = page
        self._cached_pno = pno
        self._cached_page = page
        return page, addr & PAGE_MASK

    def check(self, addr: int, size: int = 1) -> None:
        """Raise unless ``[addr, addr+size)`` lies in implemented space."""
        addr &= ADDRESS_MASK
        if not is_implemented(addr) or not is_implemented(addr + size - 1):
            raise MemoryError_(addr, "unimplemented address bits set")

    def load(self, addr: int, size: int) -> int:
        """Load a little-endian unsigned integer of ``size`` bytes."""
        addr &= ADDRESS_MASK
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE and not addr & _UNIMPL_MASK:
            pno = addr >> PAGE_BITS
            if pno == self._cached_pno:
                page = self._cached_page
            else:
                page = self._pages.get(pno)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._pages[pno] = page
                self._cached_pno = pno
                self._cached_page = page
            if size == 1:
                return page[off]
            codec = _SCALAR.get(size)
            if codec is not None:
                return codec.unpack_from(page, off)[0]
        self.check(addr, size)
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def store(self, addr: int, size: int, value: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        addr &= ADDRESS_MASK
        off = addr & PAGE_MASK
        if off + size <= PAGE_SIZE and not addr & _UNIMPL_MASK:
            pno = addr >> PAGE_BITS
            if pno != self._dirty_last:
                self._dirty.add(pno)
                self._dirty_last = pno
            if pno == self._cached_pno:
                page = self._cached_page
            else:
                page = self._pages.get(pno)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._pages[pno] = page
                self._cached_pno = pno
                self._cached_page = page
            if size == 1:
                page[off] = value & 0xFF
                return
            codec = _SCALAR.get(size)
            if codec is not None:
                codec.pack_into(page, off, value & ((1 << (8 * size)) - 1))
                return
        self.check(addr, size)
        self.write_bytes(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read a byte range (crossing pages as needed)."""
        addr &= ADDRESS_MASK
        out = bytearray()
        while size > 0:
            page, off = self._page_for(addr)
            chunk = min(size, PAGE_SIZE - off)
            out += page[off:off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write a byte range (crossing pages as needed)."""
        addr &= ADDRESS_MASK
        pos = 0
        while pos < len(data):
            pno = (addr + pos) >> PAGE_BITS
            if pno != self._dirty_last:
                self._dirty.add(pno)
                self._dirty_last = pno
            page, off = self._page_for(addr + pos)
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            page[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (without the NUL).

        Scans whole page slices for the terminator (``bytearray.find``)
        instead of issuing one checked scalar load per character.
        """
        out = bytearray()
        pos = addr & ADDRESS_MASK
        while len(out) < limit:
            self.check(pos, 1)
            page, off = self._page_for(pos)
            end = min(PAGE_SIZE, off + (limit - len(out)))
            nul = page.find(0, off, end)
            if nul >= 0:
                out += page[off:nul]
                return bytes(out)
            out += page[off:end]
            pos += end - off
        raise MemoryError_(addr, "unterminated string")

    def pages_touched(self) -> int:
        """Number of pages allocated so far."""
        return len(self._pages)

    def iter_pages(self) -> Iterator[Tuple[int, bytearray]]:
        """Iterate (page-number, bytearray) pairs."""
        return iter(self._pages.items())

    # -- dirty-page epochs (repro.resil delta checkpoints) ------------

    def dirty_pages(self) -> Set[int]:
        """Page numbers written since the last :meth:`begin_epoch`.

        The returned set is live — callers that need a stable snapshot
        must copy it before the next store.
        """
        return self._dirty

    def dirty_count(self) -> int:
        """Number of distinct pages written this epoch."""
        return len(self._dirty)

    def begin_epoch(self) -> int:
        """Drain the dirty set and open a new epoch.

        Returns a fresh token naming the epoch.  A delta checkpoint
        captures the drained set and remembers the token; at restore
        time a matching ``dirty_epoch`` proves the live dirty set lists
        exactly the pages that diverged from that checkpoint.
        """
        self._dirty.clear()
        self._dirty_last = -1
        self._epoch_counter += 1
        self.dirty_epoch = self._epoch_counter
        return self.dirty_epoch

    def rebind_epoch(self, epoch: int) -> None:
        """Reset the dirty set as of a restored checkpoint's epoch.

        Called after an in-place restore: memory now matches the
        checkpoint that owns ``epoch``, so the dirty set restarts empty
        relative to it (repeat rollbacks to the same checkpoint stay
        O(touched)).
        """
        self._dirty.clear()
        self._dirty_last = -1
        self.dirty_epoch = epoch
        # Keep the counter monotonic past any adopted token so future
        # epochs never collide with one carried in by a migrated
        # checkpoint chain (tokens are compared only for equality).
        if epoch > self._epoch_counter:
            self._epoch_counter = epoch

    def readopt_epoch(self, epoch: int, pages) -> None:
        """Re-adopt an older epoch, unioning ``pages`` into the dirty set.

        The speculation subsystem (repro.spec) opens a private epoch for
        its entry checkpoint; on commit or rollback it hands epoch
        continuity back to the enclosing resilience chain by declaring
        "everything dirtied since *your* checkpoint is what I captured
        (``pages``) plus whatever is dirty now".  Unlike
        :meth:`rebind_epoch`, the current dirty set is kept, so the
        parent's next delta capture still sees every page written since
        the parent was taken.
        """
        self._dirty.update(pages)
        self._dirty_last = -1
        self.dirty_epoch = epoch
        if epoch > self._epoch_counter:
            self._epoch_counter = epoch
