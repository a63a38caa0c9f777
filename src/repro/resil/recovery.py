"""The ``recover`` policy mode: rollback + quarantine + resume.

The paper (2.3) argues a detected NaT consumption is a *deferred,
recoverable* exception; Raksha's security monitor makes the same point.
This module is that monitor.  A :class:`ResilienceSupervisor` drives
the CPU in bounded slices; the guest-OS ``accept`` native captures a
:class:`~repro.resil.checkpoint.MachineCheckpoint` at every request
boundary (before the connection is dequeued), so when a request
triggers a :class:`~repro.taint.engine.SecurityAlert`, a
:class:`~repro.cpu.faults.Fault` (including ``GuestOOMFault``) or blows
its per-request instruction-budget watchdog, the supervisor

1. rolls the machine back to the last checkpoint (the offending
   request is back at the head of the pending queue),
2. quarantines that connection (pops it into ``net.quarantined`` and
   records a :class:`QuarantineIncident`), and
3. resumes — the guest re-executes ``accept`` and serves the next
   request as if the attack had never run.

Because every recovery removes exactly one pending request, progress is
guaranteed; ``max_recoveries`` is only a backstop.  A fault that occurs
with *no* request pending at the checkpoint would recur
deterministically after rollback, so it is re-raised instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.faults import Fault, GuestOOMFault, RunawayError
from repro.resil.checkpoint import (DeltaCheckpoint, MachineCheckpoint,
                                    _SnapshotBase)
from repro.taint.engine import SecurityAlert


@dataclass
class QuarantineIncident:
    """One recovered abort: what happened, and what it cost."""

    request_index: int  # Connection.index of the quarantined request
    reason: str  # 'alert' | 'fault' | 'oom' | 'runaway'
    policy_id: str  # SHIFT policy id for alerts, else ""
    message: str
    pc: int  # pc at the abort point
    instruction_count: int  # instruction count at the abort point
    rolled_back_to: int  # instruction count restored by the rollback
    worker: str = ""  # machine id of the recovering machine (fleet)
    checkpoint_kind: str = "full"  # 'full' | 'delta' — what was restored
    checkpoint_pages: int = 0  # pages the restored snapshot captured
    checkpoint_bytes: int = 0  # page bytes the restored snapshot captured


class ResilienceSupervisor:
    """Checkpoint/rollback recovery loop around one machine.

    Checkpoints form a copy-on-write chain: the first capture is a full
    :class:`MachineCheckpoint`; subsequent request boundaries capture
    :class:`DeltaCheckpoint`\\ s holding only the pages, fds and
    connection cursors touched since the previous checkpoint
    (``use_delta=False`` restores the old full-snapshot-every-time
    behaviour for differential testing).  The chain is compacted by
    folding the oldest delta into the base once it exceeds
    ``max_chain`` links, bounding both restore depth and held memory.
    """

    def __init__(self, machine, *, watchdog: Optional[int] = None,
                 max_recoveries: int = 1000, label: str = "",
                 use_delta: bool = True, max_chain: int = 64) -> None:
        self.machine = machine
        #: Machine identity stamped on incidents — in a fleet this names
        #: the worker that rolled back ("w3 quarantined request 5").
        self.label = label
        #: Per-request instruction budget; None disables the watchdog.
        self.watchdog = watchdog
        self.max_recoveries = max_recoveries
        self.use_delta = use_delta
        self.max_chain = max_chain
        self.incidents: List[QuarantineIncident] = []
        self.recoveries = 0
        self.checkpoints_taken = 0
        #: Capture-cost accounting (surfaced as resil.* metrics).
        self.full_captures = 0
        self.delta_captures = 0
        self.pages_captured = 0
        self.bytes_captured = 0
        #: Base + deltas, oldest first; the tip is what _recover restores.
        self.chain: List[_SnapshotBase] = []
        self._checkpoint: Optional[_SnapshotBase] = None
        self._checkpoint_instr = 0

    # -- checkpointing -------------------------------------------------

    def on_request_boundary(self) -> None:
        """Capture a checkpoint (called by the accept native, pre-pop)."""
        self.checkpoint_now("request_boundary")

    def checkpoint_now(self, reason: str = "manual") -> _SnapshotBase:
        """Capture the next checkpoint in the chain and return it.

        Takes a delta whenever the live dirty set is provably relative
        to the current tip (its epoch token matches); anything else —
        first capture, ``use_delta=False``, or an outside caller such as
        ``machine.checkpoint()`` having claimed the epoch in between —
        falls back to a fresh full snapshot, which is always correct.
        """
        machine = self.machine
        cp: _SnapshotBase
        if (self.use_delta and self.chain
                and machine.memory.dirty_epoch == self.chain[-1].epoch):
            cp = DeltaCheckpoint.capture(machine, self.chain[-1])
            self.delta_captures += 1
            self.chain.append(cp)
            if len(self.chain) > self.max_chain:
                base = self.chain[0]
                base.absorb(self.chain[1])
                del self.chain[1]
                if len(self.chain) > 1:
                    self.chain[1].parent = base
        else:
            cp = MachineCheckpoint.capture(machine)
            self.full_captures += 1
            self.chain = [cp]
        # The tip is what _recover restores; at max_chain=1 the fold
        # above absorbs the fresh delta straight into the base, which
        # is then state-identical to it.
        self._checkpoint = self.chain[-1]
        self._checkpoint_instr = cp.instruction_count
        self.checkpoints_taken += 1
        self.pages_captured += cp.page_count
        self.bytes_captured += cp.byte_size
        obs = machine.obs
        if obs is not None:
            from repro.obs.events import CheckpointEvent

            obs.tracer.emit(CheckpointEvent(
                reason=reason,
                pages=cp.page_count,
                pending_requests=cp.pending_requests,
                instruction_count=self._checkpoint_instr,
                snapshot=cp.kind,
                captured_bytes=cp.byte_size,
                chain_length=len(self.chain)))
        return cp

    # -- the supervised run loop ---------------------------------------

    def run_supervised(self, max_instructions: int = 200_000_000) -> int:
        """Run the guest to completion, recovering aborts; exit code."""
        machine = self.machine
        cpu = machine.cpu
        if "thread_create" in machine.program.natives:
            return self._run_threaded(max_instructions)
        start = cpu.counters.instructions
        while True:
            if cpu.halted:
                return cpu.exit_code
            remaining = max_instructions - (cpu.counters.instructions - start)
            if remaining <= 0:
                raise RunawayError("instruction budget exhausted (supervised)")
            slice_budget = remaining
            if self.watchdog is not None and self._checkpoint is not None:
                elapsed = cpu.counters.instructions - self._checkpoint_instr
                wd_remaining = self.watchdog - elapsed
                if wd_remaining <= 0:
                    self._recover("runaway", RunawayError(
                        f"request exceeded its {self.watchdog}-instruction "
                        "watchdog"))
                    continue
                slice_budget = min(slice_budget, wd_remaining)
            try:
                executed = cpu.run_slice(slice_budget)
            except SecurityAlert as exc:
                self._recover("alert", exc)
                continue
            except Fault as exc:
                self._recover("oom" if isinstance(exc, GuestOOMFault)
                              else "fault", exc)
                continue
            if executed == 0 and not cpu.halted:
                raise RunawayError("supervised guest made no progress")

    def _run_threaded(self, max_instructions: int) -> int:
        """Coarse recovery around the thread scheduler (no watchdog)."""
        from repro.runtime.threads import DeadlockError

        machine = self.machine
        while True:
            try:
                return machine.threads.run_all(
                    max_instructions=max_instructions)
            except SecurityAlert as exc:
                self._recover("alert", exc)
            except DeadlockError as exc:
                self._recover("fault", exc)
            except RunawayError:
                raise
            except Fault as exc:
                self._recover("oom" if isinstance(exc, GuestOOMFault)
                              else "fault", exc)

    # -- rollback ------------------------------------------------------

    def _recover(self, reason: str, exc: BaseException) -> None:
        """Roll back to the last checkpoint and quarantine the offender.

        Re-raises ``exc`` when recovery cannot help: no checkpoint yet,
        no request was pending at the checkpoint (the abort would recur
        deterministically), or the recovery backstop is exhausted.
        """
        spec = self.machine.spec
        if spec is not None and spec.active:
            # The abort happened inside a speculation epoch: roll back
            # to the *epoch* entry and replay the slice under full
            # tracking instead of quarantining.  A genuine alert/fault
            # re-fires during the replay with the epoch closed and
            # recovery proceeds normally then.
            spec.handle_trip(exc)
            return
        cp = self._checkpoint
        if (cp is None or cp.pending_head_index < 0
                or self.recoveries >= self.max_recoveries):
            raise exc
        machine = self.machine
        abort_pc = getattr(exc, "pc", -1)
        if abort_pc is None or abort_pc < 0:
            abort_pc = machine.cpu.pc
        abort_instr = machine.cpu.counters.instructions
        policy_id = getattr(exc, "policy_id", "") or ""

        cp.restore(machine)
        offender = machine.net.pending.popleft()
        machine.net.quarantined.append(offender)
        self.recoveries += 1

        incident = QuarantineIncident(
            request_index=offender.index,
            reason=reason,
            policy_id=policy_id,
            message=str(exc),
            pc=abort_pc,
            instruction_count=abort_instr,
            rolled_back_to=cp.instruction_count,
            worker=self.label,
            checkpoint_kind=cp.kind,
            checkpoint_pages=cp.page_count,
            checkpoint_bytes=cp.byte_size)
        self.incidents.append(incident)

        obs = machine.obs
        if obs is not None:
            from repro.obs.events import QuarantineEvent, RollbackEvent

            obs.tracer.emit(RollbackEvent(
                reason=reason, detail=str(exc), pc=abort_pc,
                instruction_count=abort_instr,
                restored_instruction_count=cp.instruction_count))
            obs.tracer.emit(QuarantineEvent(
                request_index=offender.index, reason=reason,
                policy_id=policy_id,
                instruction_count=cp.instruction_count))
