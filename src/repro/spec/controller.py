"""Epoch bookkeeping and commit/rollback for repro.spec.

One :class:`SpeculationController` per machine owns the speculation
life cycle:

* **Entry** happens at the *top* of a native (pre-dispatch, pc in the
  shared stub), only when the machine is quiescent enough to resume
  the fast copy and the live taint digests into few enough ranges
  (:class:`~repro.spec.watch.TaintWatch`).  Entry captures a
  :class:`~repro.resil.checkpoint.DeltaCheckpoint` — stacked on the
  resilience chain tip when one is current, on the controller's own
  base snapshot otherwise — then drops the core to the fast copy.
* **Commit** happens at the next ``accept``/``thread_create`` top, at
  guest exit, or early when taint drains or moves *within* the watch.
  Deferred externally visible effects (network sends, console writes)
  are released in order, and the entry delta is folded away so the
  epoch leaves no trace in checkpoint lineage.
* **Rollback** restores the entry delta in place, truncates alerts
  recorded during the epoch, drops deferred effects, re-charges the
  wasted cycles as I/O time (the attempt was real work), and forces
  track mode so the same slice replays fully instrumented — alerts,
  pcs and origins then match an always-on run bit for bit.

The epoch never spans a resilience request-boundary checkpoint:
``before_native("accept")`` commits before the supervisor captures,
so recovery state is always speculation-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.adaptive.controller import MODE_FAST, MODE_TRACK
from repro.cpu.faults import SpecGuardTrip
from repro.isa.operands import GR_SP
from repro.resil.checkpoint import (DeltaCheckpoint, MachineCheckpoint,
                                    adopt_epoch)
from repro.spec.watch import TaintWatch

#: Refuse entry when the taint bitmap digests into more merged ranges
#: than this — the per-access guard is O(ranges), and a fragmented
#: heap means the request will likely touch taint anyway.
SPEC_MAX_RANGES = 16

#: Refuse entry above this many live tainted granules: scanning the
#: bitmap and guarding huge ranges stops paying for itself.
SPEC_MAX_LIVE_GRANULES = 1 << 16

#: Natives at whose *top* an open epoch must end and a new epoch must
#: not begin.  ``accept`` is the request boundary (the resilience
#: supervisor checkpoints inside it — the epoch must be gone first);
#: ``thread_create`` forks execution state the single-core watch
#: cannot reason about.
COMMIT_NATIVES = frozenset({"accept", "thread_create"})


@dataclass
class SpeculationState:
    """Bookkeeping for one open speculation epoch."""

    epoch_id: int
    watch: TaintWatch
    checkpoint: DeltaCheckpoint
    #: 'resil' (delta on the supervisor chain tip, handed back via
    #: ``adopt_epoch``) or 'own' (delta on the controller's private
    #: base, folded with ``absorb``).
    cp_kind: str
    parent_epoch: int
    entry_pc: int
    entry_instructions: int
    entry_cycles: float
    #: ``len(engine.alerts)`` at entry; growth past this inside the
    #: epoch forces a rollback (alert mode records instead of raising).
    alert_stamp: int
    #: Deferred effects in program order:
    #: ``("send", conn, data, tags)`` / ``("console", fd, data)``.
    deferred: List[tuple] = field(default_factory=list)
    #: Set when taint moved strictly *within* the watch (e.g. ``free``
    #: cleared part of a watched buffer): still sound — host natives
    #: apply data and tag effects together — but the watch is stale,
    #: so commit and re-digest at the next boundary.
    watch_dirty: bool = False


class SpeculationController:
    """Owns speculative epochs: entry policy, guards, commit/rollback."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._epoch: Optional[SpeculationState] = None
        self._next_epoch_id = 1
        #: Private base snapshot for epochs captured outside the
        #: supervisor's chain (plain / non-recover machines).
        self._base: Optional[MachineCheckpoint] = None
        #: After a rollback, do not re-enter until the next request
        #: boundary: the replay would just trip again on the same data.
        self._cooldown_until_accept = False
        #: Entry-attempt memo: when entry was refused at mutation
        #: stamp N, skip rebuilding the watch until the bitmap changes.
        self._deny_stamp: Optional[int] = None
        # stats (read by obs.metrics.collect_machine)
        self.epochs = 0
        self.commits = 0
        self.rollbacks = 0
        self.committed_instructions = 0
        self.wasted_instructions = 0
        self.wasted_cycles = 0.0
        self.deferred_sends = 0
        self.deferred_bytes = 0
        self.entry_failures = 0
        machine.taint_map.mutation_hook = self._on_tag_mutation

    # -- queries -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an epoch is open."""
        return self._epoch is not None

    @property
    def watch_ranges(self) -> int:
        """Merged guard ranges of the live epoch (0 when idle)."""
        return len(self._epoch.watch.ranges) if self._epoch else 0

    # -- boundary hooks (called by GuestOS) --------------------------------

    def before_native(self, cpu, name: str) -> None:
        """Pre-dispatch hook: commit at boundaries, else try to enter.

        Runs at the top of every native, pc still on the break — a
        checkpoint captured here re-executes the native exactly once
        after a restore (the handler has not run yet).
        """
        if name in COMMIT_NATIVES:
            if name == "accept":
                self._cooldown_until_accept = False
            if self._epoch is not None:
                if self._alerts_grew():
                    self._rollback(cpu, reason="alert")
                else:
                    self._commit(cpu, reason="request-boundary")
            return
        if self._epoch is None:
            self._try_enter(cpu)

    def on_boundary(self, cpu) -> None:
        """Post-handler hook: judge the epoch after each native."""
        epoch = self._epoch
        if epoch is None:
            return
        if self._alerts_grew():
            self._rollback(cpu, reason="alert")
            return
        if cpu.unat:
            # A NaT spill under fast mode means tainted state escaped
            # the watch's model; replay tracked to find out how.
            self._rollback(cpu, reason="unat")
            return
        if self.machine.taint_map.live_granules == 0:
            # Taint drained inside the epoch (e.g. ``free``): nothing
            # left to guard, and plain fast mode takes over from here.
            self._commit(cpu, reason="taint-drained")
            return
        if epoch.watch_dirty:
            # The watch is stale: commit and drop to tracking.  Do NOT
            # re-enter here — the pc still sits on the native's break,
            # so a checkpoint captured post-handler would re-execute
            # the native after a rollback.  The next native's
            # pre-dispatch hook re-enters with a fresh watch.
            self._commit(cpu, reason="watch-stale")
            adaptive = self.machine.adaptive
            if adaptive.mode == MODE_FAST:
                adaptive._switch(cpu, MODE_TRACK)

    # -- entry -------------------------------------------------------------

    def _try_enter(self, cpu) -> None:
        machine = self.machine
        adaptive = machine.adaptive
        if adaptive is None:
            return
        if self._cooldown_until_accept or cpu.halted:
            return
        taint_map = machine.taint_map
        live = taint_map.live_granules
        if not 0 < live <= SPEC_MAX_LIVE_GRANULES:
            return
        if self._deny_stamp is not None \
                and self._deny_stamp == taint_map.mutations:
            return
        threads = getattr(machine, "threads", None)
        if threads is not None and threads.multi_threaded:
            return
        if not adaptive._quiescent(cpu):
            return
        watch = TaintWatch.build(machine, SPEC_MAX_RANGES)
        if watch is None or self._touches_stack(cpu, watch):
            self._deny_stamp = taint_map.mutations
            self.entry_failures += 1
            return
        self._deny_stamp = None
        checkpoint, cp_kind, parent_epoch = self._capture_entry()
        counters = cpu.counters
        self._epoch = SpeculationState(
            epoch_id=self._next_epoch_id,
            watch=watch,
            checkpoint=checkpoint,
            cp_kind=cp_kind,
            parent_epoch=parent_epoch,
            entry_pc=cpu.pc,
            entry_instructions=counters.instructions,
            entry_cycles=counters.cycles,
            alert_stamp=len(machine.engine.alerts),
        )
        self._next_epoch_id += 1
        self.epochs += 1
        cpu.spec_ranges[:] = watch.ranges
        if adaptive.mode == MODE_TRACK:
            adaptive._switch(cpu, MODE_FAST)
        self._emit(cpu, "enter", self._epoch, reason=cp_kind)

    def _touches_stack(self, cpu, watch: TaintWatch) -> bool:
        """Working-set estimate: refuse when taint sits in the live
        stack window — the request is certain to trip immediately."""
        from repro.runtime.threads import thread_stack_top

        threads = getattr(self.machine, "threads", None)
        tid = threads.current_tid if threads is not None else 0
        return watch.intersects(cpu.gr[GR_SP] & ~7, thread_stack_top(tid))

    def _capture_entry(self) -> Tuple[DeltaCheckpoint, str, int]:
        machine = self.machine
        mem = machine.memory
        resil = getattr(machine, "resil", None)
        if resil is not None and resil.chain \
                and mem.dirty_epoch == resil.chain[-1].epoch:
            tip = resil.chain[-1]
            return DeltaCheckpoint.capture(machine, tip), "resil", tip.epoch
        if self._base is None or mem.dirty_epoch != self._base.epoch:
            self._base = MachineCheckpoint.capture(machine)
        return (DeltaCheckpoint.capture(machine, self._base), "own",
                self._base.epoch)

    # -- guard channels ----------------------------------------------------

    def _on_tag_mutation(self, tag_byte_addr: int, length: int) -> None:
        """TaintMap mutation hook: judge host-side taint movement.

        Tag-byte offsets map to data at 8 data bytes per tag byte for
        both granularities.  Movement fully inside the watch marks it
        stale (commit at the next boundary); any movement outside is
        taint escaping the guarded set — trip immediately.
        """
        epoch = self._epoch
        if epoch is None:
            return
        lo = tag_byte_addr << 3
        hi = (tag_byte_addr + length) << 3
        if epoch.watch.contains_linear(lo, hi):
            epoch.watch_dirty = True
            return
        raise SpecGuardTrip(lo, hi - lo, reason="taint-motion")

    def handle_trip(self, exc: Optional[BaseException] = None) -> bool:
        """Roll back the open epoch after a trip/fault/alert raise.

        Called from the run loop (and the resilience supervisor's
        recovery path) when an exception escapes guest execution while
        an epoch is open.  Returns False when no epoch was open — the
        caller must then re-raise.
        """
        if self._epoch is None:
            return False
        reason = "guard"
        if isinstance(exc, SpecGuardTrip):
            reason = exc.reason
        elif exc is not None:
            reason = type(exc).__name__
        self._rollback(self.machine.cpu, reason=reason)
        return True

    def finalize(self) -> bool:
        """Close an epoch left open at run exit.

        Commits (releasing deferred effects) unless alerts were
        recorded during the epoch, in which case it rolls back and
        returns False — the caller resumes execution to replay the
        slice under tracking.
        """
        if self._epoch is None:
            return True
        cpu = self.machine.cpu
        if self._alerts_grew():
            self._rollback(cpu, reason="alert-at-exit")
            return False
        self._commit(cpu, reason="exit")
        return True

    # -- deferred externally visible effects -------------------------------

    def defer_send(self, conn, data: bytes, tags) -> None:
        """Buffer a network send until commit (dropped on rollback)."""
        self._epoch.deferred.append(("send", conn, data, tags))
        self.deferred_sends += 1
        self.deferred_bytes += len(data)

    def defer_console(self, fd: int, data: bytes) -> None:
        """Buffer a console write until commit (dropped on rollback)."""
        self._epoch.deferred.append(("console", fd, data))

    def _release_deferred(self, epoch: SpeculationState) -> None:
        console, net = self.machine.console, self.machine.net
        for item in epoch.deferred:
            if item[0] == "send":
                _, conn, data, tags = item
                net.send(conn, data, tags)
            else:
                _, fd, data = item
                console.write(fd, data)

    # -- commit / rollback -------------------------------------------------

    def _alerts_grew(self) -> bool:
        return len(self.machine.engine.alerts) > self._epoch.alert_stamp

    def _commit(self, cpu, reason: str) -> None:
        epoch = self._epoch
        self._epoch = None
        machine = self.machine
        self._release_deferred(epoch)
        del cpu.spec_ranges[:]
        if epoch.cp_kind == "resil":
            # Hand the dirty-set lineage back to the supervisor's chain
            # tip as if the epoch never existed.
            adopt_epoch(machine, epoch.parent_epoch, epoch.checkpoint)
        else:
            self._base.absorb(epoch.checkpoint)
        self.commits += 1
        self.committed_instructions += \
            cpu.counters.instructions - epoch.entry_instructions
        self._emit(cpu, "commit", epoch, reason=reason)

    def _rollback(self, cpu, reason: str) -> None:
        epoch = self._epoch
        self._epoch = None
        machine = self.machine
        counters = cpu.counters
        trip_pc = cpu.pc
        wasted_instr = counters.instructions - epoch.entry_instructions
        wasted_cycles = counters.cycles - epoch.entry_cycles
        # Alerts recorded during the epoch are phantoms of the
        # speculative attempt; the tracked replay re-records them with
        # full provenance.  (Checkpoint restore never touches alerts.)
        del machine.engine.alerts[epoch.alert_stamp:]
        del cpu.spec_ranges[:]
        epoch.checkpoint.restore(machine)
        if epoch.cp_kind == "resil":
            adopt_epoch(machine, epoch.parent_epoch, epoch.checkpoint)
        else:
            self._base.absorb(epoch.checkpoint)
        # The restore rewound the counters; the speculative attempt
        # still burned real time, so re-charge it as I/O cycles — the
        # benchmark pays for misspeculation honestly.
        if wasted_cycles > 0:
            counters.add_io_cycles(wasted_cycles)
        adaptive = machine.adaptive
        if adaptive is not None and adaptive.mode == MODE_FAST:
            # Entry from a committed predecessor restores fast mode;
            # the replay must run tracked or it would trip again.
            adaptive._switch(cpu, MODE_TRACK)
        self._cooldown_until_accept = True
        self.rollbacks += 1
        self.wasted_instructions += wasted_instr
        self.wasted_cycles += wasted_cycles
        self._emit(cpu, "rollback", epoch, reason=reason,
                   trigger_pc=trip_pc,
                   instruction_count=epoch.entry_instructions + wasted_instr)

    # -- observability -----------------------------------------------------

    def _emit(self, cpu, action: str, epoch: SpeculationState,
              reason: str = "", trigger_pc: Optional[int] = None,
              instruction_count: Optional[int] = None) -> None:
        obs = self.machine.obs
        if obs is None:
            return
        from repro.obs.events import SpecEvent

        obs.tracer.emit(SpecEvent(
            action=action,
            epoch=epoch.epoch_id,
            trigger_pc=epoch.entry_pc if trigger_pc is None else trigger_pc,
            guarded_bytes=epoch.watch.guarded_bytes,
            ranges=len(epoch.watch.ranges),
            reason=reason,
            instruction_count=(cpu.counters.instructions
                               if instruction_count is None
                               else instruction_count),
        ))
