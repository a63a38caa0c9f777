"""Whole-machine checkpoints for rollback recovery.

A :class:`MachineCheckpoint` captures everything the guest can observe:
architectural registers (including the NaT bits that *are* the taint
state of registers), predicates, branch registers, ``ar.unat``, every
non-zero sparse-memory page (the taint bitmap lives in guest memory, so
tag state rides along for free), the heap bump pointer, the fd table,
device queues, the provenance side-table and the performance counters
and cache state — so a rolled-back run is *bit-identical* to one that
never executed the discarded segment, under both the reference and the
predecoded engine.

One epoch protocol covers every structure that grows with history:
memory pages, the guest OS fd table and the connection cursors
(``read_pos`` and the lengths of ``outbound`` and ``outbound_tags``).
Each keeps a dirty set — ``SparseMemory`` the page numbers written
(see :mod:`repro.mem.memory`), ``GuestOS.dirty_fds`` the fds opened,
moved, written or closed, ``SimNetwork.dirty`` the connections read or
sent on, keyed by ``Connection.index`` — and :func:`adopt_epoch` opens,
rebinds and re-adopts all three together, so they always describe the
same epoch.  A :class:`DeltaCheckpoint` chains off a parent checkpoint
and records only the dirty entries (a closed fd as a ``None``
tombstone); a :class:`MachineCheckpoint` records them all.  Reading an
entry walks the chain child → parent → base, and an entry absent
everywhere is in its initial state (zero page, closed fd, untouched
connection).  Restore is O(touched) whenever the live dirty epoch
matches the checkpoint being restored (the common rollback-to-latest
case, full *or* delta), and falls back to a full chain walk otherwise —
always correct, merely slower.  Everything else — registers,
counters, caches, files, provenance, threads, and queue membership as
two tuples of connection references — is captured wholesale by every
checkpoint.

Restore is strictly **in place**: the predecoded engine's generated
closures capture the identity of the register lists, the counters, the
``pair_costs`` dict, the issue-model group list, the store-forward
window, the memory's page dict and dirty set, and the L1 set lists and
stats, so the checkpoint must never rebind those objects — it mutates
their contents (``gr[:] = saved``, ``page[:] = saved``, bucket and stats
fields assigned) instead.

What is deliberately **not** rolled back (external world / evidence):

* connections that *arrived after* the checkpoint stay queued: whether
  still pending or already accepted, they are re-queued behind the
  restored pending set in arrival order, with fresh cursors (those that
  were quarantined stay quarantined);
* ``SimNetwork._next_index`` keeps counting (arrival numbers are facts);
* recorded alerts, the trace ring buffer and quarantine lists are
  append-only evidence of what happened before the rollback;
* transient-error injectors keep their stream position, otherwise a
  retried transient would replay forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mem.memory import PAGE_SIZE

_ZERO_PAGE = bytes(PAGE_SIZE)

#: PerfCounters scalar fields captured verbatim.
_COUNTER_FIELDS = (
    "instructions", "groups", "issue_cycles", "stall_cycles",
    "branch_penalty_cycles", "io_cycles", "loads", "stores",
    "branches_taken",
)


def adopt_epoch(machine, epoch: Optional[int] = None,
                carry: Optional["_SnapshotBase"] = None) -> int:
    """Point the page, fd and connection dirty sets at one epoch.

    * ``adopt_epoch(machine)`` opens a fresh epoch (capture): all three
      sets drain and the new token is returned.
    * ``adopt_epoch(machine, epoch)`` rebinds (restore): the live state
      now equals the snapshot owning ``epoch``, so the sets drain.
    * ``adopt_epoch(machine, epoch, carry)`` re-adopts (repro.spec):
      ``carry`` is a delta captured on ``epoch``'s snapshot and about to
      be dropped; the sets keep what they hold and take back everything
      ``carry`` recorded, so they are relative to ``epoch`` again as if
      ``carry`` had never been captured.
    """
    mem, os, net = machine.memory, machine.os, machine.net
    if carry is not None:
        os.dirty_fds.update(carry.fds)
        net.dirty.update((index, record[0])
                         for index, record in carry.conns.items())
        mem.readopt_epoch(epoch, carry.pages.keys())
        return epoch
    os.dirty_fds.clear()
    net.dirty.clear()
    if epoch is None:
        return mem.begin_epoch()
    mem.rebind_epoch(epoch)
    return epoch


def _fd_record(handle):
    """Checkpoint record of one fd table entry (None: closed)."""
    if handle is None:
        return None
    return (handle.kind, handle.path, handle.pos, handle.conn,
            None if handle.write_buffer is None
            else bytes(handle.write_buffer))


def _conn_record(conn):
    """Checkpoint record of one connection's cursors."""
    tags = conn.outbound_tags
    return (conn, conn.read_pos, len(conn.outbound),
            None if tags is None else len(tags))


def _capture_context(ctx):
    """Deep-copy one saved CpuContext (None while running on the core)."""
    if ctx is None:
        return None
    from repro.cpu.core import CpuContext

    return CpuContext(gr=list(ctx.gr), nat=list(ctx.nat), pr=list(ctx.pr),
                      br=list(ctx.br), unat=ctx.unat, pc=ctx.pc)


class _SnapshotBase:
    """State capture/restore shared by full and delta checkpoints.

    Subclasses differ only in *which* entries of the three
    epoch-tracked tables they record — memory pages (``pages``), fd
    table entries (``fds``, None for a closed fd) and connection cursors
    (``conns``, keyed by ``Connection.index``): a full checkpoint
    records them all, a delta only those dirtied since its parent.
    Restore resolves each entry child → parent → base.  Everything else
    — registers, counters, caches, queue membership, files, devices,
    provenance, threads — is captured wholesale by
    :meth:`_capture_state`.
    """

    kind = "full"

    def __init__(self) -> None:
        self.instruction_count = 0
        self.pages: Dict[int, bytes] = {}
        self.fds: Dict[int, Optional[tuple]] = {}
        self.conns: Dict[int, tuple] = {}
        #: Parent in the delta chain (None for a base snapshot).
        self.parent: Optional["_SnapshotBase"] = None
        #: Epoch token this snapshot opened for the page, fd and
        #: connection dirty sets (see adopt_epoch).
        self.epoch = 0
        self.pending_head_index = -1  # Connection.index, -1 when empty

    # -- capture -------------------------------------------------------

    def _capture_state(self, machine) -> None:
        """Capture everything except memory pages."""
        cpu = machine.cpu
        cpu.issue.flush()

        # CPU architectural + micro-architectural state.
        self._gr = list(cpu.gr)
        self._nat = list(cpu.nat)
        self._pr = list(cpu.pr)
        self._br = list(cpu.br)
        self._unat = cpu.unat
        self._pc = cpu.pc
        self._halted = cpu.halted
        self._exit_code = cpu.exit_code
        self._yield_requested = cpu.yield_requested
        self._fault_pc = cpu._fault_pc
        self._recent_stores = list(cpu._recent_stores)

        # Performance counters: scalars plus the ordered RoleCost buckets.
        counters = cpu.counters
        self._counter_scalars = tuple(
            getattr(counters, f) for f in _COUNTER_FIELDS)
        self._pair_costs: List[Tuple[object, Tuple[int, float, float]]] = [
            (key, (c.slots, c.issue_cycles, c.stall_cycles))
            for key, c in counters.pair_costs.items()
        ]
        self.instruction_count = counters.instructions

        # Cache hierarchy: LRU contents + hit/miss statistics per level.
        self._caches = []
        for cache in (cpu.caches.l1, cpu.caches.l2, cpu.caches.l3):
            # Only occupied sets hold lines (occupancy is monotone), so
            # capture walks tens of entries, not thousands of empties.
            sets = {i: tuple(cache._sets[i]) for i in cache._occupied}
            self._caches.append(
                (sets, cache.stats.accesses, cache.stats.misses))

        self._heap_next = machine._heap_next
        self._heap_sizes = dict(machine._heap_sizes)

        # Taint live-byte counter and adaptive mode (repro.adaptive):
        # the bitmap pages already carry the tag *bits*; the counter and
        # the controller's mode must stay consistent with them or a
        # restored machine could enter fast mode non-quiescent.
        self._live_granules = machine.taint_map.live_granules
        adaptive = machine.adaptive
        self._adaptive = None if adaptive is None else adaptive.capture()

        # Guest OS scalars (the fd table is epoch-tracked: see capture).
        os = machine.os
        self._stdin_pos = os._stdin_pos
        self._next_fd = os._next_fd
        self._io_retries = os.io_retries
        self._io_failures = os.io_failures

        # Network queue membership (the per-connection cursors are
        # epoch-tracked: see capture).
        net = machine.net
        self._pending = tuple(net.pending)
        self._completed = tuple(net.completed)
        self._arrival_watermark = net._next_index
        if self._pending:
            self.pending_head_index = self._pending[0].index
        # External-evidence watermarks: restore() on the same machine
        # deliberately leaves these alone (they are append-only facts),
        # but a migration rehydrate onto a fresh machine uses them to
        # cut the carried-by-value copies back to this checkpoint's
        # view — the target re-executes the later requests itself.
        self._quarantined_len = len(net.quarantined)
        self._net_dropped = net.dropped

        # Filesystem, console, side-effect logs, guest RNG.
        self._files = dict(machine.fs.files)
        self._console_out = len(machine.console.out)
        self._console_err = len(machine.console.err)
        self._commands = len(machine.executed_commands)
        self._queries = len(machine.executed_queries)
        self._rng_state = machine.rng_state

        # Provenance side-table (mirrors the rolled-back tag bitmap).
        self._provenance = None
        if machine.obs is not None:
            prov = machine.obs.provenance
            self._provenance = (list(prov.origins), dict(prov._table))

        # Threads: scheduler bookkeeping + saved per-thread contexts.
        threads = machine.threads
        self._thread_state = [
            (t.tid, t.status, t.exit_value, list(t.join_waiters),
             _capture_context(t.context))
            for t in threads.threads.values()
        ]
        self._current_tid = threads.current_tid
        self._next_tid = threads._next_tid
        self._mutexes = [
            (mid, m.holder, list(m.waiters))
            for mid, m in threads.mutexes.items()
        ]
        self._next_mutex = threads._next_mutex
        self._context_switches = threads.context_switches

    # -- restore -------------------------------------------------------

    def _resolve(self, table: str, key):
        """Effective record of ``key`` in ``table`` at this snapshot.

        ``table`` is ``"pages"``, ``"fds"`` or ``"conns"``.  Walks the
        chain toward the base; None means the entry is in its initial
        state there (all-zero page, closed fd, untouched connection).
        """
        node: Optional["_SnapshotBase"] = self
        while node is not None:
            records = getattr(node, table)
            if key in records:
                return records[key]
            node = node.parent
        return None

    def _restore_tracked(self, machine) -> bool:
        """Roll pages, fds and connection cursors back, strictly in place.

        Fast path: when the live dirty epoch *is* this snapshot's epoch,
        only the entries in the three dirty sets can differ — rewrite
        exactly those, O(touched).  Slow path (restoring an older
        snapshot, or rehydrating onto a fresh machine): rewrite the
        union of live and chain-recorded entries, materialising pages
        the target machine never allocated.  Pages allocated after the
        checkpoint are zero-filled in place (content-equivalent to
        never-allocated, and it keeps the one-entry page cache valid).
        Returns whether the fast path applied.
        """
        mem, os, net = machine.memory, machine.os, machine.net
        fast = mem.dirty_epoch == self.epoch
        if fast:
            pnos = set(mem.dirty_pages())
            fds = set(os.dirty_fds)
            conns = dict(net.dirty)
        else:
            pnos = set(mem._pages)
            fds = set(os._fds)
            # Only accepted connections ever leave their initial
            # cursors, so the live and the restored queues name every
            # connection whose cursors can differ.
            conns = {c.index: c for c in (*net.pending, *net.completed,
                                          *self._pending, *self._completed)}
            node: Optional["_SnapshotBase"] = self
            while node is not None:
                pnos |= node.pages.keys()
                fds |= node.fds.keys()
                node = node.parent

        pages = mem._pages
        for pno in pnos:
            saved = self._resolve("pages", pno)
            page = pages.get(pno)
            if page is None:
                if saved is None:
                    continue
                page = bytearray(PAGE_SIZE)
                pages[pno] = page
            page[:] = saved if saved is not None else _ZERO_PAGE

        from repro.runtime.guest_os import FileHandle

        for fd in fds:
            record = self._resolve("fds", fd)
            if record is None:
                os._fds.pop(fd, None)
                continue
            kind, path, pos, conn, write_buffer = record
            os._fds[fd] = FileHandle(
                kind=kind, path=path, pos=pos, conn=conn,
                write_buffer=(None if write_buffer is None
                              else bytearray(write_buffer)))

        for index, conn in conns.items():
            record = self._resolve("conns", index)
            read_pos, outbound_len, tags_len = (
                (0, 0, None) if record is None else record[1:])
            conn.read_pos = read_pos
            del conn.outbound[outbound_len:]
            if tags_len is None:
                conn.outbound_tags = None
            elif conn.outbound_tags is not None:
                del conn.outbound_tags[tags_len:]

        adopt_epoch(machine, self.epoch)
        return fast

    def restore(self, machine) -> None:
        """Roll the machine back to this snapshot, strictly in place."""
        cpu = machine.cpu

        cpu.gr[:] = self._gr
        cpu.nat[:] = self._nat
        cpu.pr[:] = self._pr
        cpu.br[:] = self._br
        cpu.unat = self._unat
        cpu.pc = self._pc
        cpu.halted = self._halted
        cpu.exit_code = self._exit_code
        cpu.yield_requested = self._yield_requested
        cpu._fault_pc = self._fault_pc
        cpu._recent_stores.clear()
        cpu._recent_stores.extend(self._recent_stores)

        # Issue model: the capture point was group-flushed, so the
        # restored group is empty; clear the live one without closing it
        # (closing would charge cycles that belong to the discarded run).
        issue = cpu.issue
        issue._group.clear()
        issue._group_writes = 0
        issue._group_pr_writes = 0
        issue._group_mem = 0
        issue._group_slots = 0

        counters = cpu.counters
        for field, value in zip(_COUNTER_FIELDS, self._counter_scalars):
            setattr(counters, field, value)
        # Saved keys are an order-preserving prefix of the live dict
        # (buckets are created lazily and never removed), so deleting
        # the post-checkpoint extras restores the exact creation order.
        saved_keys = {key for key, _ in self._pair_costs}
        for key in [k for k in counters.pair_costs if k not in saved_keys]:
            del counters.pair_costs[key]
        for key, (slots, issue_cycles, stall_cycles) in self._pair_costs:
            bucket = counters.pair_costs.get(key)
            if bucket is None:
                # Fresh-machine rehydrate (migration): the target has
                # never executed, so its buckets are created here, in
                # saved order — preserving the source's creation order.
                bucket = counters.pair(*key)
            bucket.slots = slots
            bucket.issue_cycles = issue_cycles
            bucket.stall_cycles = stall_cycles

        for cache, (sets, accesses, misses) in zip(
                (cpu.caches.l1, cpu.caches.l2, cpu.caches.l3), self._caches):
            # Clear sets filled after the capture, rewrite the saved
            # ones; _occupied shrinks back to the captured index set.
            for i in cache._occupied - sets.keys():
                cache._sets[i].clear()
            for i, saved in sets.items():
                cache._sets[i][:] = saved
            cache._occupied = set(sets.keys())
            cache.stats.accesses = accesses
            cache.stats.misses = misses

        fast = self._restore_tracked(machine)
        machine._heap_next = self._heap_next
        machine._heap_sizes.clear()
        machine._heap_sizes.update(self._heap_sizes)
        machine.taint_map.live_granules = self._live_granules
        adaptive = machine.adaptive
        if adaptive is not None and self._adaptive is not None:
            adaptive.restore(self._adaptive)

        os = machine.os
        os._stdin_pos = self._stdin_pos
        os._next_fd = self._next_fd
        os.io_retries = self._io_retries
        os.io_failures = self._io_failures

        # Connections that arrived after the checkpoint are external
        # facts: still pending or already accepted (quarantined ones
        # stay quarantined), they queue behind the restored pending set
        # in arrival order, with the fresh cursors the rewrite above
        # gave them.  Pending is kept in arrival order, so its late
        # arrivals are a suffix; on the fast path the accepted ones all
        # sit past the restored completed prefix.
        net = machine.net
        watermark = self._arrival_watermark
        start = len(self._completed) if fast else 0
        arrivals = [c for c in net.completed[start:] if c.index >= watermark]
        for conn in reversed(net.pending):
            if conn.index < watermark:
                break
            arrivals.append(conn)
        arrivals.sort(key=lambda conn: conn.index)
        net.pending.clear()
        net.pending.extend(self._pending)
        net.pending.extend(arrivals)
        net.completed[:] = self._completed

        machine.fs.files.clear()
        machine.fs.files.update(self._files)
        del machine.console.out[self._console_out:]
        del machine.console.err[self._console_err:]
        del machine.executed_commands[self._commands:]
        del machine.executed_queries[self._queries:]
        machine.rng_state = self._rng_state

        if self._provenance is not None and machine.obs is not None:
            prov = machine.obs.provenance
            origins, table = self._provenance
            prov.origins[:] = origins
            prov._table.clear()
            prov._table.update(table)

        from repro.runtime.threads import GuestThread, Mutex

        threads = machine.threads
        threads.threads.clear()
        for tid, status, exit_value, join_waiters, ctx in self._thread_state:
            threads.threads[tid] = GuestThread(
                tid=tid, context=_capture_context(ctx), status=status,
                exit_value=exit_value, join_waiters=list(join_waiters))
        threads.current_tid = self._current_tid
        threads._next_tid = self._next_tid
        threads.mutexes.clear()
        for mid, holder, waiters in self._mutexes:
            threads.mutexes[mid] = Mutex(holder=holder,
                                         waiters=list(waiters))
        threads._next_mutex = self._next_mutex
        threads.context_switches = self._context_switches

    # -- introspection -------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages captured *by this snapshot* (not the whole chain)."""
        return len(self.pages)

    @property
    def byte_size(self) -> int:
        """Memory bytes captured by this snapshot (pages only)."""
        return len(self.pages) * PAGE_SIZE

    @property
    def chain_length(self) -> int:
        """Snapshots in the chain ending here (1 for a base)."""
        n, node = 0, self
        while node is not None:
            n += 1
            node = node.parent
        return n

    @property
    def pending_requests(self) -> int:
        """Pending connections at capture time."""
        return len(self._pending)


class MachineCheckpoint(_SnapshotBase):
    """One full restorable snapshot of a :class:`~repro.runtime.machine.Machine`.

    Build with :meth:`capture`; apply with :meth:`restore` on the same
    machine instance (or a freshly built twin, for migration).  Capture
    flushes the open issue group first, which is a no-op at the points
    checkpoints are taken (native-call and run-slice boundaries always
    flush before returning control).
    """

    kind = "full"

    @classmethod
    def capture(cls, machine) -> "MachineCheckpoint":
        """Snapshot the machine's complete guest-visible state."""
        self = cls()
        self._capture_state(machine)

        # Every non-zero page (tag bitmap pages included), every open
        # fd and the cursors of every queued or accepted connection.
        self.pages = {
            pno: bytes(page)
            for pno, page in machine.memory._pages.items()
            if page != _ZERO_PAGE
        }
        self.fds = {fd: _fd_record(handle)
                    for fd, handle in machine.os._fds.items()}
        net = machine.net
        self.conns = {conn.index: _conn_record(conn)
                      for conn in (*net.pending, *net.completed)}
        self.epoch = adopt_epoch(machine)
        return self

    def absorb(self, delta: "DeltaCheckpoint") -> None:
        """Fold a direct-child delta into this base, in place.

        Afterwards this snapshot is state-identical to ``delta`` (its
        wholesale state and epoch are adopted as they are); the caller
        must repoint any grandchildren's ``parent`` at this object.
        Pages dirtied back to all-zero and fd tombstones are dropped (at
        base level, absence already means zero and closed).
        """
        if delta.parent is not self:
            raise ValueError("can only absorb a direct child delta")
        for pno, data in delta.pages.items():
            if data == _ZERO_PAGE:
                self.pages.pop(pno, None)
            else:
                self.pages[pno] = data
        for fd, record in delta.fds.items():
            if record is None:
                self.fds.pop(fd, None)
            else:
                self.fds[fd] = record
        self.conns.update(delta.conns)
        for attr, value in delta.__dict__.items():
            if attr in ("pages", "fds", "conns", "parent"):
                continue
            setattr(self, attr, value)


class DeltaCheckpoint(_SnapshotBase):
    """A copy-on-write checkpoint: only entries dirtied since ``parent``.

    Valid only when the machine's dirty set is still relative to the
    parent (``memory.dirty_epoch == parent.epoch``) — the supervisor
    checks this and falls back to a full snapshot when some other
    checkpoint has claimed the epoch in between.
    """

    kind = "delta"

    @classmethod
    def capture(cls, machine, parent: _SnapshotBase) -> "DeltaCheckpoint":
        """Capture the entries dirtied since ``parent`` + wholesale state."""
        mem = machine.memory
        if mem.dirty_epoch != parent.epoch:
            raise ValueError(
                "dirty set is not relative to the given parent "
                f"(epoch {mem.dirty_epoch} != {parent.epoch})")
        self = cls()
        self._capture_state(machine)

        # A dirtied page was written through store()/write_bytes(), both
        # of which allocate, so it always exists; pages dirtied back to
        # all-zero are captured anyway — a restore must see the zeros
        # even when an ancestor holds non-zero content.
        pages = mem._pages
        self.pages = {
            pno: bytes(pages[pno]) for pno in mem.dirty_pages()
        }
        # A dirty fd that is closed now records its tombstone (None).
        fds = machine.os._fds
        self.fds = {fd: _fd_record(fds.get(fd))
                    for fd in machine.os.dirty_fds}
        self.conns = {index: _conn_record(conn)
                      for index, conn in machine.net.dirty.items()}
        self.parent = parent
        self.epoch = adopt_epoch(machine)
        return self
