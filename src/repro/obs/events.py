"""Structured trace events emitted by the observability subsystem.

Every event is a plain dataclass with a class-level ``KIND`` string and
a ``to_dict()`` that flattens it for the JSON-lines exporter.  Events
are cheap to construct but are only ever built behind an
``if tracer is not None:`` guard, so a machine running with tracing
disabled never allocates one (the paper's hot loop stays untouched).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Tuple


@dataclass
class Event:
    """Base class: ``KIND`` names the event type in exports."""

    KIND: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """Flat dict form, with the event kind under ``"kind"``."""
        data = {"kind": self.KIND}
        data.update(asdict(self))
        return data

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """Declared field names (schema documentation helper)."""
        return tuple(f.name for f in fields(cls))


@dataclass
class TaintSourceEvent(Event):
    """Input bytes were marked tainted by a taint source (paper 3.3.1)."""

    KIND: ClassVar[str] = "taint_source"

    source: str  # 'network' | 'file' | 'stdin' | 'manual'
    label: str  # request#N, file path, ...
    addr: int  # guest address the bytes landed at
    length: int
    origin_id: int  # provenance origin created for this input
    stream_offset: int  # byte position within the source stream
    instruction_count: int = 0


@dataclass
class TaintStoreEvent(Event):
    """A host-side taint-summary update to the bitmap (wrap functions)."""

    KIND: ClassVar[str] = "taint_store"

    op: str  # 'set' | 'clear' | 'copy'
    addr: int  # destination range start
    length: int
    src: int = -1  # source range start for 'copy'
    instruction_count: int = 0


@dataclass
class FaultEvent(Event):
    """A processor fault (NaT consumption, illegal instruction, ...)."""

    KIND: ClassVar[str] = "fault"

    fault: str  # fault class name
    detail: str  # NaT-consumption kind or message
    pc: int
    instruction: str  # disassembly of the faulting instruction
    instruction_count: int = 0


@dataclass
class AlertEvent(Event):
    """The policy engine reported a security alert."""

    KIND: ClassVar[str] = "alert"

    policy_id: str
    message: str
    context: str = ""
    pc: int = -1
    instruction_count: int = 0
    origin_ids: Tuple[int, ...] = ()


@dataclass
class SyscallEvent(Event):
    """A syscall or native (wrap-function) call entered the runtime."""

    KIND: ClassVar[str] = "syscall"

    name: str
    detail: str = ""
    instruction_count: int = 0


@dataclass
class ThreadSwitchEvent(Event):
    """The round-robin scheduler moved the core to another thread."""

    KIND: ClassVar[str] = "thread_switch"

    from_tid: int
    to_tid: int
    instruction_count: int = 0
    switches: int = 0  # cumulative context-switch count


@dataclass
class CheckpointEvent(Event):
    """A machine checkpoint was captured (request boundary or manual)."""

    KIND: ClassVar[str] = "checkpoint"

    reason: str  # 'request_boundary' | 'manual'
    pages: int  # memory pages captured by this snapshot
    pending_requests: int
    instruction_count: int = 0
    snapshot: str = "full"  # 'full' | 'delta'
    captured_bytes: int = 0  # page bytes captured by this snapshot
    chain_length: int = 1  # snapshots in the delta chain ending here


@dataclass
class RollbackEvent(Event):
    """The supervisor rolled the machine back to its last checkpoint."""

    KIND: ClassVar[str] = "rollback"

    reason: str  # 'alert' | 'fault' | 'oom' | 'runaway'
    detail: str  # alert/fault text
    pc: int = -1  # pc at the abort point (pre-rollback)
    instruction_count: int = 0  # at the abort point (pre-rollback)
    restored_instruction_count: int = 0


@dataclass
class QuarantineEvent(Event):
    """An offending request was removed from the queue after rollback."""

    KIND: ClassVar[str] = "quarantine"

    request_index: int  # Connection.index, -1 if nothing was pending
    reason: str  # 'alert' | 'fault' | 'oom' | 'runaway'
    policy_id: str = ""  # set when the abort was a SecurityAlert
    instruction_count: int = 0


@dataclass
class InjectionEvent(Event):
    """The fault-injection campaign perturbed the machine state."""

    KIND: ClassVar[str] = "injection"

    kind: str  # 'tag_flip' | 'nat_drop' | 'read_truncate' | 'transient'
    detail: str
    instruction_count: int = 0


@dataclass
class AdaptiveSwitchEvent(Event):
    """The adaptive controller switched tracking mode (repro.adaptive)."""

    KIND: ClassVar[str] = "adaptive_switch"

    direction: str  # 'adaptive.enter_track' | 'adaptive.enter_fast'
    trigger_pc: int  # pc at the boundary where the switch fired
    live_bytes: int  # tainted bytes at switch time (0 for enter_fast)
    instruction_count: int = 0


@dataclass
class SpecEvent(Event):
    """The speculation controller entered, committed or rolled back an
    epoch (repro.spec)."""

    KIND: ClassVar[str] = "spec"

    action: str  # 'enter' | 'commit' | 'rollback'
    epoch: int  # speculation epoch id (monotonic per machine)
    trigger_pc: int = -1  # pc at entry / the guard-tripping access
    guarded_bytes: int = 0  # total bytes covered by the watch ranges
    ranges: int = 0  # number of merged watch ranges
    reason: str = ""  # commit/rollback trigger ('boundary', 'guard', ...)
    instruction_count: int = 0


#: Every event type, for schema documentation and exporters.
EVENT_TYPES: Tuple[type, ...] = (
    TaintSourceEvent,
    TaintStoreEvent,
    FaultEvent,
    AlertEvent,
    SyscallEvent,
    ThreadSwitchEvent,
    CheckpointEvent,
    RollbackEvent,
    QuarantineEvent,
    InjectionEvent,
    AdaptiveSwitchEvent,
    SpecEvent,
)
