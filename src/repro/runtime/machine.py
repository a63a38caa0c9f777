"""The Machine: loader + assembled simulation of one guest program.

Ties together the compiled program, sparse memory, taint bitmap, policy
engine, devices and CPU.  This is the main entry point for running
SHIFT-protected (or baseline) guests::

    compiled = compile_program([LIBC_SOURCE, APP_SOURCE], BYTE_LEVEL)
    machine = Machine(compiled, MachineSpec(policy_config=config))
    machine.net.add_request(b"GET /index.html ...")
    exit_code = machine.run()
"""

from __future__ import annotations

import itertools
import os as _os
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.instrument import GRANULARITY_BYTE
from repro.compiler.pipeline import CompiledProgram
from repro.cpu.core import CPU, ENGINES, code_address
from repro.cpu.faults import Fault, RunawayError
from repro.cpu.perf import IssueConfig, PerfCounters
from repro.isa.program import Program
from repro.mem.address import REGION_DATA, make_address
from repro.mem.cache import CacheHierarchy, HierarchyConfig
from repro.mem.memory import SparseMemory
from repro.runtime.devices import Console, DeviceCosts, SimFileSystem, SimNetwork
from repro.runtime.guest_os import GuestOS
from repro.taint.bitmap import TaintMap
from repro.taint.engine import ENGINE_MODES, PolicyEngine, SecurityAlert
from repro.taint.policy import PolicyConfig

#: Aborts that a live speculation epoch absorbs into rollback + replay:
#: guard trips (SpecGuardTrip is a Fault), guest faults, raise-mode
#: security alerts, and watchdog runaways.  Anything else (host bugs,
#: KeyboardInterrupt) propagates even mid-epoch.
_SPEC_REPLAYABLE = (Fault, SecurityAlert, RunawayError)

#: Where static data is placed in the data region.
DATA_BASE = make_address(REGION_DATA, 0x10000)
#: Heap follows static data at this offset within the data region.
HEAP_GAP = 0x100000
#: Guest heap ceiling when ShiftOptions.heap_limit is unset: generous
#: for every real workload, but a runaway malloc loop hits it long
#: before it can exhaust *host* memory.
DEFAULT_HEAP_LIMIT = 256 * 1024 * 1024


class LoaderError(Exception):
    """Raised when the program cannot be loaded (e.g. unknown symbol)."""


#: Process-wide machine ordinal for auto-assigned machine ids.
_MACHINE_ORDINAL = itertools.count()
#: trace_path -> weakref of the live machine that claimed it.  Used to
#: detect two live machines sharing one trace path (which used to end
#: with the second export silently clobbering the first).
_TRACE_CLAIMS: Dict[str, "weakref.ref"] = {}


def _suffixed_path(path: str, machine_id: str) -> str:
    """Insert a machine-id suffix before the path's extension."""
    root, ext = _os.path.splitext(path)
    return f"{root}.{machine_id}{ext}"


def resolve_trace_path(path: str, machine, *,
                       explicit_id: bool) -> str:
    """Pick the effective trace path for one machine.

    A machine constructed with an explicit ``machine_id`` always gets a
    deterministic per-machine filename (fleet workers share one
    configured path and must not clobber each other).  Without an
    explicit id the plain path is kept — unless another *live* machine
    already claimed it, in which case this machine's auto id is
    suffixed instead of silently overwriting the first machine's trace.
    """
    if explicit_id:
        return _suffixed_path(path, machine.machine_id)
    claim = _TRACE_CLAIMS.get(path)
    owner = claim() if claim is not None else None
    if owner is not None and owner is not machine:
        return _suffixed_path(path, machine.machine_id)
    _TRACE_CLAIMS[path] = weakref.ref(machine)
    return path


#: On-demand tracking modes (repro.adaptive): "none" runs a plain
#: single-version program; the other three need the dual-version
#: layout.  "on" switches between the tracked and fast copies, "track"
#: pins the tracked copy (the differential baseline, same layout as
#: "on"), and "speculate" adds repro.spec fast-path execution under
#: taint-range guards.
ADAPTIVE_MODES = ("none", "on", "track", "speculate")


@dataclass(frozen=True)
class MachineSpec:
    """How one guest runs: everything but the program and its inputs.

    Frozen and picklable, so fleet workers receive it whole and a grid
    of configurations is a set of :func:`dataclasses.replace` calls.
    """

    policy_config: Optional[PolicyConfig] = None
    #: One of :data:`repro.cpu.core.ENGINES`.
    engine: str = "predecoded"
    #: One of :data:`repro.taint.engine.ENGINE_MODES`.
    engine_mode: str = "raise"
    #: One of :data:`ADAPTIVE_MODES`.
    adaptive: str = "none"
    #: The default model itself, not None, so that a spec spelling the
    #: default issue width equals ``MachineSpec()``.
    issue_config: IssueConfig = IssueConfig()
    cache_config: Optional[HierarchyConfig] = None
    costs: Optional[DeviceCosts] = None
    #: Per-request instruction budget of the recover-mode supervisor.
    recover_watchdog: Optional[int] = None
    #: Bound on the machine's own pending-connection queue.
    net_capacity: Optional[int] = None
    thread_quantum: int = 800
    serialize_bitmap: bool = False
    tracing: bool = False
    #: Trace export path (implies tracing); see :func:`resolve_trace_path`.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name, value, allowed in (
                ("adaptive mode", self.adaptive, ADAPTIVE_MODES),
                ("engine mode", self.engine_mode, ENGINE_MODES),
                ("engine", self.engine, ENGINES)):
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}; "
                                 f"expected one of {allowed}")


class Machine:
    """A loaded guest program ready to run."""

    def __init__(
        self,
        compiled: CompiledProgram,
        spec: MachineSpec = MachineSpec(),
        *,
        files: Optional[Dict[str, bytes]] = None,
        stdin: bytes = b"",
        machine_id: Optional[str] = None,
    ) -> None:
        if (compiled.adaptive is None) != (spec.adaptive == "none"):
            raise ValueError(
                f"adaptive mode {spec.adaptive!r} needs a "
                f"{'plain' if spec.adaptive == 'none' else 'dual-version'}"
                " program")
        #: Stable identity used for per-machine trace filenames and
        #: fleet incident attribution ("worker w3 quarantined request 5").
        self.machine_id = machine_id if machine_id is not None \
            else f"m{next(_MACHINE_ORDINAL)}"
        self.compiled = compiled
        self.program: Program = compiled.program
        self.memory = SparseMemory()
        self.symbols: Dict[str, int] = {}
        self._load_data()
        self._relocate()

        granularity = (
            compiled.options.granularity
            if compiled.options.mode != "none"
            else GRANULARITY_BYTE
        )
        flat = getattr(compiled.options, "fast_tag_translation", False)
        self.taint_map = TaintMap(self.memory, granularity, flat=flat)
        #: Observability bundle (tracer + provenance), or None when
        #: tracing is off — the zero-overhead default.
        self.obs = None
        #: Effective trace-export path (per-machine unique; see
        #: :func:`resolve_trace_path`), or None when not exporting.
        self.trace_path: Optional[str] = None
        if spec.tracing or spec.trace_path is not None:
            from repro.obs import Observability

            if spec.trace_path is not None:
                self.trace_path = resolve_trace_path(
                    spec.trace_path, self, explicit_id=machine_id is not None)
            self.obs = Observability(granularity=granularity,
                                     trace_path=self.trace_path)
            self.taint_map.provenance = self.obs.provenance
            self.taint_map.tracer = self.obs.tracer
        self.policy_config = spec.policy_config or PolicyConfig()
        self.engine = PolicyEngine(self.policy_config, self.taint_map,
                                   mode=spec.engine_mode)
        if self.obs is not None:
            self.engine.tracer = self.obs.tracer

        self.costs = spec.costs or DeviceCosts()
        self.fs = SimFileSystem(files)
        self.net = SimNetwork(capacity=spec.net_capacity)
        self.console = Console()
        self.executed_commands: List[str] = []
        self.executed_queries: List[str] = []
        self.rng_state = 0x853C49E6748FEA9B
        self.os = GuestOS(self)
        if stdin:
            self.os.stdin = stdin

        self.cpu = CPU(
            self.program,
            self.memory,
            caches=CacheHierarchy(spec.cache_config),
            issue_config=spec.issue_config,
            syscall_handler=self.os.syscall,
            native_handler=self.os.native,
            fault_hook=self.engine.on_fault,
            engine=spec.engine,
        )
        #: The engine locates alerts (pc / instruction count) via the CPU.
        self.engine.cpu = self.cpu
        if self.obs is not None:
            self.cpu.tracer = self.obs.tracer
        # Tag-store watch: every guest store into the region-0 tag space
        # is accounted before it commits, which keeps the taint map's
        # live-granule counter exact (O(1) quiescence checks, and the
        # taint.live_bytes metric) without bitmap scans.
        from repro.mem.address import tag_space_limit

        self.cpu.tag_watch = self.taint_map.on_guest_tag_store
        self.cpu.tag_limit = tag_space_limit(granularity)
        self.taint_map.counter_authoritative = True
        #: malloc'd block sizes by address, so free() can drop the
        #: block's taint (heap taint drains when the guest releases it).
        self._heap_sizes: Dict[int, int] = {}
        #: Adaptive mode controller (repro.adaptive), present in the
        #: "on" and "speculate" modes.  A "track" machine never leaves
        #: the instrumented copies (the differential baseline).
        self.adaptive = None
        if spec.adaptive in ("on", "speculate"):
            from repro.adaptive import AdaptiveController

            self.adaptive = AdaptiveController(self)
        from repro.runtime.threads import ThreadManager

        self.threads = ThreadManager(self, quantum=spec.thread_quantum,
                                     serialize_bitmap=spec.serialize_bitmap)

        #: Recovery supervisor (repro.resil), built for 'recover' mode.
        self.resil = None
        if spec.engine_mode == "recover":
            from repro.resil.recovery import ResilienceSupervisor

            self.resil = ResilienceSupervisor(
                self, watchdog=spec.recover_watchdog, label=self.machine_id)

        #: Speculation controller (repro.spec), in the "speculate" mode:
        #: runs the fast copy under taint-range guards while taint is
        #: live but contained, with checkpoint rollback + replay-in-track
        #: on guard trips.  It switches between the same two program
        #: copies as the adaptive controller.
        self.spec = None
        if spec.adaptive == "speculate":
            from repro.spec import SpeculationController

            self.spec = SpeculationController(self)

    # -- loading --------------------------------------------------------

    def _load_data(self) -> None:
        addr = DATA_BASE
        for item in self.program.data:
            align = max(item.align, 1)
            addr = (addr + align - 1) // align * align
            self.symbols[item.name] = addr
            if item.init:
                self.memory.write_bytes(addr, item.init)
            addr += max(item.size, 1)
        self._heap_next = (addr + HEAP_GAP + 15) // 16 * 16
        self._heap_base = self._heap_next

    def _relocate(self) -> None:
        for instr in self.program.code:
            if instr.sym is None:
                continue
            if instr.sym.startswith("&"):
                name = instr.sym[1:]
                if name not in self.program.labels:
                    raise LoaderError(f"undefined function {name!r}")
                instr.imm = code_address(self.program.label_index(name))
            else:
                if instr.sym not in self.symbols:
                    raise LoaderError(f"undefined data symbol {instr.sym!r}")
                instr.imm = self.symbols[instr.sym]

    def heap_alloc(self, size: int) -> int:
        """Bump-allocate guest heap memory (malloc backend).

        Raises :class:`~repro.cpu.faults.GuestOOMFault` when the guest
        exceeds its heap ceiling (``ShiftOptions.heap_limit``, or
        :data:`DEFAULT_HEAP_LIMIT`) — recoverable in ``recover`` mode.
        """
        addr = self._heap_next
        rounded = (max(size, 1) + 15) // 16 * 16
        limit = getattr(self.compiled.options, "heap_limit", None)
        if limit is None:
            limit = DEFAULT_HEAP_LIMIT
        in_use = addr - self._heap_base
        if in_use + rounded > limit:
            from repro.cpu.faults import GuestOOMFault

            raise GuestOOMFault(requested=size, in_use=in_use, limit=limit)
        self._heap_next = addr + rounded
        self._heap_sizes[addr] = rounded
        return addr

    # -- execution ---------------------------------------------------------

    def run(self, max_instructions: int = 200_000_000) -> int:
        """Run the guest to completion; returns its exit code.

        Programs that declare the threading natives run under the
        round-robin scheduler; everything else takes the plain
        single-context fast path.  :class:`SecurityAlert` propagates to
        the caller when the policy engine runs in ``raise`` mode.
        """
        try:
            while True:
                try:
                    if self.resil is not None:
                        code = self.resil.run_supervised(
                            max_instructions=max_instructions)
                    elif "thread_create" in self.program.natives:
                        code = self.threads.run_all(
                            max_instructions=max_instructions)
                    else:
                        self.cpu.run(max_instructions=max_instructions)
                        code = self.cpu.exit_code
                except BaseException as exc:
                    # A guard trip — or any abort raised while a
                    # speculation epoch is open — rolls the epoch back
                    # and resumes so the slice replays under tracking.
                    # Replayed aborts arrive here again with the epoch
                    # closed (rollback sets an entry cooldown) and
                    # propagate normally.
                    if self.spec is not None and self.spec.active and \
                            isinstance(exc, _SPEC_REPLAYABLE):
                        self.spec.handle_trip(exc)
                        continue
                    raise
                if self.spec is not None and not self.spec.finalize():
                    # The final epoch rolled back at exit: the restore
                    # un-halted the guest, run on to replay the tail.
                    continue
                return code
        except BaseException as exc:
            # Aborts that never went through the fault/alert tracing
            # paths (RunawayError, DeadlockError, host errors) would
            # otherwise leave the exported incident report without its
            # terminal event.
            self._record_terminal_event(exc)
            raise
        finally:
            if self.obs is not None:
                self.obs.export()

    def _record_terminal_event(self, exc: BaseException) -> None:
        """Trace the in-flight abort unless it was already emitted."""
        if self.obs is None or getattr(exc, "_obs_traced", False):
            return
        from repro.obs.events import FaultEvent

        pc = getattr(exc, "pc", -1)
        if pc is None or pc < 0:
            pc = self.cpu.pc
        instr = ""
        if 0 <= pc < len(self.program.code):
            instr = str(self.program.code[pc])
        self.obs.tracer.emit(FaultEvent(
            fault=type(exc).__name__,
            detail=str(exc),
            pc=pc,
            instruction=instr,
            instruction_count=self.cpu.counters.instructions,
        ))
        exc._obs_traced = True

    # -- resilience ----------------------------------------------------------

    def checkpoint(self):
        """Capture a restorable snapshot of the full machine state."""
        from repro.resil.checkpoint import MachineCheckpoint

        return MachineCheckpoint.capture(self)

    def restore(self, snapshot) -> None:
        """Roll this machine back to a previously captured checkpoint."""
        snapshot.restore(self)

    # -- convenience accessors -----------------------------------------------

    @property
    def counters(self) -> PerfCounters:
        """The CPU's performance counters."""
        return self.cpu.counters

    @property
    def alerts(self):
        """Security alerts recorded by the policy engine."""
        return self.engine.alerts

    def metrics(self):
        """This machine's state as ``{name: value}`` (see repro.obs.metrics)."""
        from repro.obs.metrics import collect_machine

        return collect_machine(self)

    def incident_reports(self):
        """Forensic reports for every recorded alert (see repro.obs)."""
        from repro.obs.report import incident_reports

        return incident_reports(self)

    def address_of(self, symbol: str) -> int:
        """Loaded address of a data symbol."""
        try:
            return self.symbols[symbol]
        except KeyError:
            raise LoaderError(f"unknown data symbol {symbol!r}") from None

    def read_global(self, symbol: str, size: int = 8) -> int:
        """Load a global variable's value."""
        return self.memory.load(self.address_of(symbol), size)

    def read_string(self, symbol: str) -> bytes:
        """Read a NUL-terminated global string."""
        return self.memory.read_cstring(self.address_of(symbol))
