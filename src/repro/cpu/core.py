"""Executor for the IA-64-like ISA with deferred-exception (NaT) semantics.

This is the "speculative hardware" that SHIFT reuses: every general
register carries a NaT bit that ALU operations propagate OR-wise, a
speculative load (``ld8.s``) from an invalid address *defers* the
exception by setting the destination's NaT bit, ``chk.s`` branches to
recovery code when a NaT is present, and consuming a NaT register in a
non-speculative way (load/store address, plain store value, move to a
branch register) raises a NaT-consumption fault.  SHIFT's policy engine
turns those faults into security alerts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass as _dataclass
from typing import Callable, List, Optional

from repro.cpu.faults import (
    Fault,
    IllegalInstructionFault,
    NaTConsumptionFault,
    RunawayError,
    SpecGuardTrip,
)
from repro.cpu.perf import IssueConfig, IssueModel, PerfCounters
from repro.isa.instruction import Instruction, OpKind
from repro.isa.operands import NUM_BR, NUM_GR, NUM_PR
from repro.isa.program import Program
from repro.mem.address import REGION_CODE, is_implemented, make_address, offset_of
from repro.mem.cache import CacheHierarchy
from repro.mem.memory import MemoryError_, SparseMemory

MASK64 = (1 << 64) - 1


@_dataclass
class CpuContext:
    """Saved architectural state of one hardware context (thread)."""

    gr: list
    nat: list
    pr: list
    br: list
    unat: int
    pc: int

#: Execution engines (see ``CPU.engine``).
ENGINES = ("predecoded", "reference")

#: Most instructions one fused block runs (``repro.cpu.predecode``).  The
#: predecoded run loop stops dispatching blocks this many instructions
#: short of its budget, so no block can overrun ``max_instructions``.
MAX_BLOCK = 24

#: ``break`` immediates understood by the executor.
BREAK_SYSCALL = 0x100000
BREAK_NATIVE_BASE = 0x200000

#: Bytes of code-address space per instruction slot (synthetic; gives
#: every instruction a distinct region-1 address for branch registers).
CODE_SLOT_BYTES = 16


def code_address(index: int) -> int:
    """Region-1 virtual address of instruction slot ``index``."""
    return make_address(REGION_CODE, (index + 1) * CODE_SLOT_BYTES)


def code_index(addr: int) -> int:
    """Inverse of :func:`code_address`."""
    return offset_of(addr) // CODE_SLOT_BYTES - 1


def to_signed(value: int) -> int:
    """Interpret a 64-bit value as signed."""
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def _div(srcs):
    a, b = to_signed(srcs[0]), to_signed(srcs[1])
    if b == 0:
        return 0  # architectural choice: define x/0 = 0
    q = abs(a) // abs(b)
    return (-q if (a < 0) != (b < 0) else q) & MASK64


def _mod(srcs):
    a, b = to_signed(srcs[0]), to_signed(srcs[1])
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return (-r if a < 0 else r) & MASK64


def _shl(srcs):
    amt = srcs[1] & MASK64
    return (srcs[0] << amt) & MASK64 if amt < 64 else 0


def _shr(srcs):
    amt = srcs[1] & MASK64
    return (to_signed(srcs[0]) >> min(amt, 63)) & MASK64


def _shru(srcs):
    amt = srcs[1] & MASK64
    return srcs[0] >> amt if amt < 64 else 0


def _sxt(bits):
    top = 1 << (bits - 1)
    mask = (1 << bits) - 1

    def fn(srcs):
        value = srcs[0] & mask
        return (value - (mask + 1)) & MASK64 if value >= top else value

    return fn


#: Value semantics for every ALU opcode (inputs already masked to 64 bits).
_ALU_FUNCS = {
    "mov": lambda s: s[0],
    "add": lambda s: (s[0] + s[1]) & MASK64,
    "adds": lambda s: (s[0] + s[1]) & MASK64,
    "sub": lambda s: (s[0] - s[1]) & MASK64,
    "and": lambda s: s[0] & s[1],
    "andcm": lambda s: s[0] & ~s[1] & MASK64,
    "or": lambda s: s[0] | s[1],
    "xor": lambda s: s[0] ^ s[1],
    "mul": lambda s: (to_signed(s[0]) * to_signed(s[1])) & MASK64,
    "div": _div,
    "mod": _mod,
    "shl": _shl,
    "shr": _shr,
    "shr.u": _shru,
    "sxt1": _sxt(8),
    "sxt2": _sxt(16),
    "sxt4": _sxt(32),
    "zxt1": lambda s: s[0] & 0xFF,
    "zxt2": lambda s: s[0] & 0xFFFF,
    "zxt4": lambda s: s[0] & 0xFFFFFFFF,
}


class CPU:
    """One in-order core executing a :class:`Program`."""

    def __init__(
        self,
        program: Program,
        memory: SparseMemory,
        *,
        caches: Optional[CacheHierarchy] = None,
        counters: Optional[PerfCounters] = None,
        issue_config: Optional[IssueConfig] = None,
        syscall_handler: Optional[Callable[["CPU"], None]] = None,
        native_handler: Optional[Callable[["CPU", int], None]] = None,
        fault_hook: Optional[Callable[["CPU", Fault], None]] = None,
        engine: str = "predecoded",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {ENGINES}")
        self.program = program
        self.memory = memory
        self.caches = caches or CacheHierarchy()
        self.counters = counters or PerfCounters()
        self.issue = IssueModel(self.counters, issue_config)
        self.syscall_handler = syscall_handler
        self.native_handler = native_handler
        self.fault_hook = fault_hook
        #: Optional obs tracer; only consulted on the fault path, so the
        #: per-instruction execute loop is identical with tracing off.
        self.tracer = None
        #: Optional tag-space store watch (Machine wires it to
        #: ``TaintMap.on_guest_tag_store``): called with (addr, size,
        #: value) before any store whose address is below ``tag_limit``,
        #: i.e. any store into the region-0 tag space.  Keeps the
        #: taint map's live-granule counter exact against instrumented
        #: bitmap updates.  None (the default) costs nothing: the
        #: predecoder only generates the check when a watch is set.
        self.tag_watch = None
        self.tag_limit = 0
        #: Speculation guard (repro.spec): watched virtual-address
        #: ranges, mutated *in place* (generated closures bind the list
        #: object).  Empty outside a speculative epoch, so the guard
        #: costs one falsy check per memory access.  ``spec_check``
        #: raises :class:`SpecGuardTrip` when ``[addr, addr+size)``
        #: intersects any watched range.
        self.spec_ranges: List = []

        def _spec_check(addr, size, _ranges=self.spec_ranges):
            for lo, hi in _ranges:
                if addr < hi and lo < addr + size:
                    raise SpecGuardTrip(addr, size)

        self.spec_check = _spec_check

        self.gr: List[int] = [0] * NUM_GR
        self.nat: List[bool] = [False] * NUM_GR
        self.pr: List[bool] = [False] * NUM_PR
        self.pr[0] = True
        self.br: List[int] = [0] * NUM_BR
        self.unat = 0

        self.pc = program.label_index(program.entry)
        self.halted = False
        self.exit_code = 0
        #: Set by natives (thread join/yield/lock) to end the current
        #: scheduling slice after the instruction completes.
        self.yield_requested = False
        self._dispatch = self._build_dispatch()
        #: Execution engine: "predecoded" runs generated micro-op and
        #: fused-block closures, built on first execution (see
        #: repro.cpu.predecode); "reference" keeps the original
        #: dispatch-per-step loop for differential testing.
        self.engine = engine
        self._uops: Optional[list] = None
        self._fused: Optional[list] = None
        #: Faulting pc reported by fused blocks (which cover several
        #: instructions, so the block entry pc is not precise enough).
        self._fault_pc = 0
        #: The last four stores (addr, size, seq), for the store-to-load
        #: forwarding penalty (see IssueConfig.store_forward_penalty).
        #: Generated blocks bind it, so it is only ever mutated in place.
        self._recent_stores: deque = deque(maxlen=4)

    def _build_dispatch(self):
        from repro.isa.instruction import OPCODES as _OPS

        table = {}
        for op, (kind, _lat) in _OPS.items():
            if kind is OpKind.ALU:
                table[op] = self._exec_alu
            elif kind is OpKind.CMP:
                table[op] = self._exec_cmp
            elif kind is OpKind.LOAD:
                table[op] = self._exec_load
            elif kind is OpKind.STORE:
                table[op] = self._exec_store
            elif kind in (OpKind.BRANCH, OpKind.CHK):
                table[op] = self._exec_branch
            elif kind is OpKind.MOVBR:
                table[op] = self._exec_movbr
            elif kind is OpKind.MOVAR:
                table[op] = self._exec_movar
            elif kind is OpKind.SYS:
                table[op] = self._exec_break
            else:
                table[op] = self._exec_nop
        return table

    def _exec_nop(self, instr: Instruction) -> None:
        self.issue.issue(instr)
        self.pc += 1

    # ------------------------------------------------------------------
    # Register access helpers (used by the runtime and tests)

    def read_gr(self, index: int) -> int:
        """Read a general register (r0 reads as zero)."""
        return 0 if index == 0 else self.gr[index]

    def write_gr(self, index: int, value: int, nat: bool = False) -> None:
        """Write a general register and its NaT bit."""
        if index == 0:
            raise IllegalInstructionFault("write to r0")
        self.gr[index] = value & MASK64
        self.nat[index] = nat

    def read_nat(self, index: int) -> bool:
        """Read a register's NaT (taint) bit."""
        return False if index == 0 else self.nat[index]

    # ------------------------------------------------------------------

    def save_context(self) -> CpuContext:
        """Snapshot the architectural state (for thread switching)."""
        return CpuContext(gr=list(self.gr), nat=list(self.nat),
                          pr=list(self.pr), br=list(self.br),
                          unat=self.unat, pc=self.pc)

    def load_context(self, context: CpuContext) -> None:
        """Restore a previously saved architectural state."""
        self.gr[:] = context.gr
        self.nat[:] = context.nat
        self.pr[:] = context.pr
        self.br[:] = context.br
        self.unat = context.unat
        self.pc = context.pc
        self.issue.flush()  # a context switch drains the pipeline

    def run_slice(self, budget: int) -> int:
        """Execute up to ``budget`` instructions; returns instructions run.

        Stops early when the guest halts or a native requests a yield
        (thread blocking).  Used by the thread scheduler.
        """
        self.yield_requested = False
        executed = self._run(budget, True)
        self.issue.flush()
        return executed

    def run(self, max_instructions: int = 200_000_000) -> None:
        """Execute until the guest exits; raises on fault or runaway."""
        self._run(max_instructions, False)
        if not self.halted:
            code = self.program.code
            pc = self.pc
            raise RunawayError(
                f"instruction budget exhausted at pc={pc} "
                f"({code[pc] if 0 <= pc < len(code) else '?'})"
            )
        self.issue.flush()

    def _run(self, budget: int, slicing: bool) -> int:
        """Run up to ``budget`` instructions on the active engine.

        Stops early when the guest halts or, when ``slicing``, a native
        requests a yield.  Returns the instructions executed; the open
        issue group is left for the caller to flush.
        """
        if self.engine == "predecoded":
            return self._run_predecoded(budget, slicing)
        return self._run_reference(budget, slicing)

    # -- reference engine (dispatch per step, hoisted loop) ---------------

    def _run_reference(self, budget: int, slicing: bool) -> int:
        counters = self.counters
        start = counters.instructions
        limit = start + budget
        code = self.program.code
        n = len(code)
        dispatch = self._dispatch
        pr = self.pr
        issue = self.issue.issue
        while (not self.halted and counters.instructions < limit
               and not (slicing and self.yield_requested)):
            pc = self.pc
            if not 0 <= pc < n:
                raise IllegalInstructionFault(f"pc out of range: {pc}")
            instr = code[pc]
            try:
                qp = instr.qp
                if qp and not pr[qp]:
                    issue(instr)
                    self.pc = pc + 1
                else:
                    dispatch[instr.op](instr)
            except Fault as fault:
                self._fault_abort(pc, fault)
        return counters.instructions - start

    # -- predecoded engine (micro-op closures) ----------------------------

    def _ensure_uops(self) -> list:
        from repro.cpu.predecode import predecode

        uops = self._uops = predecode(self)
        return uops

    def _ensure_fused(self) -> list:
        from repro.cpu.predecode import predecode_fused

        fused = self._fused = predecode_fused(self)
        return fused

    def _run_predecoded(self, budget: int, slicing: bool) -> int:
        counters = self.counters
        start = counters.instructions
        if self.halted:
            return 0
        uops = self._uops
        if uops is None:
            uops = self._ensure_uops()
        fused = self._fused
        if fused is None:
            fused = self._ensure_fused()
        n = len(uops)
        limit = start + budget
        # A fused block executes up to MAX_BLOCK instructions per call,
        # so the bulk loop stops MAX_BLOCK short of the budget and the
        # per-micro-op tail enforces the exact stopping point.  Micro-ops
        # return the next pc, or its bitwise complement when the
        # halted/yield flags may have changed (only break micro-ops run
        # handlers), so the hot loop needs no per-step flag checks.
        safe = limit - MAX_BLOCK
        pc = self.pc
        while counters.instructions < safe:
            if not 0 <= pc < n:
                self.pc = pc
                raise IllegalInstructionFault(f"pc out of range: {pc}")
            blk = fused[pc]
            if blk is not None:
                try:
                    pc = blk(pc)
                except Fault as fault:
                    self._fault_abort(self._fault_pc, fault)
                except BaseException:
                    self.pc = pc
                    raise
                # Fused blocks return plain pcs; only a lazy trampoline
                # falling back to a break micro-op returns the sentinel.
                if pc >= 0:
                    continue
            else:
                try:
                    pc = uops[pc](pc)
                except Fault as fault:
                    self._fault_abort(pc, fault)
                except BaseException:
                    self.pc = pc
                    raise
            if pc < 0:
                pc = ~pc
                if self.halted or (slicing and self.yield_requested):
                    self.pc = pc
                    return counters.instructions - start
        while counters.instructions < limit:
            if not 0 <= pc < n:
                self.pc = pc
                raise IllegalInstructionFault(f"pc out of range: {pc}")
            try:
                pc = uops[pc](pc)
            except Fault as fault:
                self._fault_abort(pc, fault)
            except BaseException:
                self.pc = pc
                raise
            if pc < 0:
                pc = ~pc
                if self.halted or (slicing and self.yield_requested):
                    break
        self.pc = pc
        return counters.instructions - start

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction at the current pc (reference path)."""
        code = self.program.code
        pc = self.pc
        if not 0 <= pc < len(code):
            raise IllegalInstructionFault(f"pc out of range: {pc}")
        try:
            self._execute(code[pc])
        except Fault as fault:
            self._fault_abort(pc, fault)

    def step_fast(self) -> None:
        """Execute one instruction via the active engine.

        The thread scheduler's instrumentation drain uses this so that
        serialized-bitmap runs execute identical micro-ops to the bulk
        loop regardless of engine.
        """
        if self.engine != "predecoded":
            self.step()
            return
        uops = self._uops
        if uops is None:
            uops = self._ensure_uops()
        pc = self.pc
        if not 0 <= pc < len(uops):
            raise IllegalInstructionFault(f"pc out of range: {pc}")
        try:
            npc = uops[pc](pc)
        except Fault as fault:
            self._fault_abort(pc, fault)
        self.pc = npc if npc >= 0 else ~npc

    def _fault_abort(self, pc: int, fault: Fault) -> None:
        """Shared fault protocol: locate, trace, hook, re-raise."""
        instr = self.program.code[pc]
        self.pc = pc
        fault.at(pc, instr)
        if self.tracer is not None:
            from repro.obs.events import FaultEvent

            self.tracer.emit(FaultEvent(
                fault=type(fault).__name__,
                detail=getattr(fault, "kind", "") or str(fault),
                pc=pc,
                instruction=str(instr),
                instruction_count=self.counters.instructions,
            ))
            # Machine.run's incident-report backstop emits a terminal
            # event for any abort that lacks this marker.
            fault._obs_traced = True
        if self.fault_hook is not None:
            self.fault_hook(self, fault)
        raise fault

    # ------------------------------------------------------------------

    def _execute(self, instr: Instruction) -> None:
        if instr.qp and not self.pr[instr.qp]:
            # Predicated-off: no architectural effect but the slot is
            # still consumed (in-order EPIC pipeline).
            self.issue.issue(instr)
            self.pc += 1
            return
        self._dispatch[instr.op](instr)

    # -- ALU -----------------------------------------------------------

    def _exec_alu(self, instr: Instruction) -> None:
        op = instr.op
        dest = instr.outs[0].index
        if op == "movl":
            self.gr[dest] = (instr.imm or 0) & MASK64
            self.nat[dest] = False
        elif op == "settag":
            self.nat[dest] = True
        elif op == "cleartag":
            self.nat[dest] = False
        else:
            gr, nats = self.gr, self.nat
            nat = False
            srcs = []
            for r in instr.ins:
                i = r.index
                if i == 0:
                    srcs.append(0)
                else:
                    srcs.append(gr[i])
                    if nats[i]:
                        nat = True
            if instr.imm is not None:
                srcs.append(instr.imm & MASK64)
            if dest == 0:
                raise IllegalInstructionFault("write to r0")
            gr[dest] = _ALU_FUNCS[op](srcs)
            nats[dest] = nat
        self.issue.issue(instr)
        self.pc += 1

    # -- Compares and NaT tests -----------------------------------------

    _RELOPS = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: to_signed(a) < to_signed(b),
        "le": lambda a, b: to_signed(a) <= to_signed(b),
        "gt": lambda a, b: to_signed(a) > to_signed(b),
        "ge": lambda a, b: to_signed(a) >= to_signed(b),
        "ltu": lambda a, b: a < b,
        "geu": lambda a, b: a >= b,
    }

    def _exec_cmp(self, instr: Instruction) -> None:
        p_true, p_false = instr.outs[0].index, instr.outs[1].index
        if instr.op == "tnat":
            nat = self.read_nat(instr.ins[0].index)
            self._write_pr(p_true, nat)
            self._write_pr(p_false, not nat)
            self.issue.issue(instr)
            self.pc += 1
            return
        srcs = [self.read_gr(r.index) for r in instr.ins]
        if instr.imm is not None:
            srcs.append(instr.imm & MASK64)
        nat = any(self.read_nat(r.index) for r in instr.ins)
        taint_aware = instr.op.startswith("tcmp.")
        if nat and not taint_aware:
            # Itanium behaviour: a NaT source clears both predicates so
            # mis-speculated compares cannot commit state (paper 3.1).
            self._write_pr(p_true, False)
            self._write_pr(p_false, False)
        else:
            rel = instr.op.split(".", 1)[1]
            result = self._RELOPS[rel](srcs[0], srcs[1])
            self._write_pr(p_true, result)
            self._write_pr(p_false, not result)
        self.issue.issue(instr)
        self.pc += 1

    def _write_pr(self, index: int, value: bool) -> None:
        if index != 0:
            self.pr[index] = value

    # -- Memory ----------------------------------------------------------

    def _exec_load(self, instr: Instruction) -> None:
        addr_reg = instr.ins[0].index
        dest = instr.outs[0].index
        addr = self.read_gr(addr_reg)
        size = instr.access_size
        if instr.op == "ld8.s":
            # Control-speculative load: defer any exception into NaT,
            # whichever byte of the access is unimplemented.
            if (self.read_nat(addr_reg) or not is_implemented(addr)
                    or not is_implemented(addr + size - 1)):
                self.write_gr(dest, 0, nat=True)
                self.issue.issue(instr)
                self.pc += 1
                return
            if self.spec_ranges:
                self.spec_check(addr, size)
            value = self.memory.load(addr, size)
            stall = self.caches.access(addr, size)
            self.write_gr(dest, value, nat=False)
            self.issue.issue(instr, mem_stall=stall)
            self.pc += 1
            return
        if self.read_nat(addr_reg):
            raise NaTConsumptionFault("load_addr")
        if self.spec_ranges:
            self.spec_check(addr, size)
        try:
            value = self.memory.load(addr, size)
        except MemoryError_ as exc:
            raise Fault(f"load fault: {exc}") from exc
        stall = self.caches.access(addr, size) + self._forwarding_stall(addr, size)
        nat = False
        if instr.op == "ld8.fill":
            nat = bool((self.unat >> ((addr >> 3) & 63)) & 1)
        self.write_gr(dest, value, nat=nat)
        self.issue.issue(instr, mem_stall=stall)
        self.pc += 1

    def _exec_store(self, instr: Instruction) -> None:
        addr_reg, value_reg = instr.ins[0].index, instr.ins[1].index
        addr = self.read_gr(addr_reg)
        size = instr.access_size
        if self.read_nat(addr_reg):
            raise NaTConsumptionFault("store_addr")
        if instr.op == "st8.spill":
            bit = (addr >> 3) & 63
            if self.read_nat(value_reg):
                self.unat |= 1 << bit
            else:
                self.unat &= ~(1 << bit)
        elif self.read_nat(value_reg):
            raise NaTConsumptionFault("store_value")
        if self.spec_ranges:
            self.spec_check(addr, size)
        if self.tag_watch is not None and addr < self.tag_limit:
            self.tag_watch(addr, size, self.read_gr(value_reg))
        try:
            self.memory.store(addr, size, self.read_gr(value_reg))
        except MemoryError_ as exc:
            raise Fault(f"store fault: {exc}") from exc
        self._recent_stores.append((addr, size, self.counters.instructions))
        stall = self.caches.access(addr, size)
        self.issue.issue(instr, mem_stall=stall)
        self.pc += 1

    def _forwarding_stall(self, addr: int, size: int) -> float:
        """Penalty for loading data a very recent store produced."""
        config = self.issue.config
        if not self._recent_stores or not config.store_forward_penalty:
            return 0.0
        now = self.counters.instructions
        for st_addr, st_size, seq in self._recent_stores:
            if now - seq <= config.store_forward_window \
                    and addr < st_addr + st_size and st_addr < addr + size:
                return float(config.store_forward_penalty)
        return 0.0

    # -- Control flow ------------------------------------------------------

    def _exec_branch(self, instr: Instruction) -> None:
        op = instr.op
        if op == "chk.s":
            taken = self.read_nat(instr.ins[0].index)
            self.issue.issue(instr, taken_branch=taken)
            self.pc = self.program.label_index(instr.target) if taken else self.pc + 1
            return
        if op == "br" or op == "br.cond":
            self.issue.issue(instr, taken_branch=True)
            self.pc = self.program.label_index(instr.target)
            return
        if op == "br.call":
            self.br[instr.outs[0].index] = code_address(self.pc + 1)
            self.issue.issue(instr, taken_branch=True)
            self.pc = self.program.label_index(instr.target)
            return
        if op == "br.call.ind":
            target = code_index(self.br[instr.ins[0].index])
            self.br[instr.outs[0].index] = code_address(self.pc + 1)
            self.issue.issue(instr, taken_branch=True)
            self._jump_to(target)
            return
        if op in ("br.ret", "br.ind"):
            target = code_index(self.br[instr.ins[0].index])
            self.issue.issue(instr, taken_branch=True)
            self._jump_to(target)
            return
        raise IllegalInstructionFault(f"unhandled branch {op}")

    def _jump_to(self, index: int) -> None:
        if not 0 <= index < len(self.program.code):
            raise IllegalInstructionFault(f"indirect branch to invalid slot {index}")
        self.pc = index

    # -- Moves to/from BR and AR -------------------------------------------

    def _exec_movbr(self, instr: Instruction) -> None:
        if instr.op == "mov.tobr":
            src = instr.ins[0].index
            if self.read_nat(src):
                # Tainted control-flow target: policy L3 territory.
                raise NaTConsumptionFault("branch_move")
            self.br[instr.outs[0].index] = self.read_gr(src)
        else:  # mov.frombr
            self.write_gr(instr.outs[0].index, self.br[instr.ins[0].index], nat=False)
        self.issue.issue(instr)
        self.pc += 1

    def _exec_movar(self, instr: Instruction) -> None:
        if instr.op == "mov.toar":
            src = instr.ins[0].index
            if self.read_nat(src):
                raise NaTConsumptionFault("ar_move")
            self.unat = self.read_gr(src)
        else:  # mov.fromar
            self.write_gr(instr.outs[0].index, self.unat, nat=False)
        self.issue.issue(instr)
        self.pc += 1

    # -- Break (syscalls / natives) -----------------------------------------

    def _exec_break(self, instr: Instruction) -> None:
        self.issue.issue(instr)
        imm = instr.imm or 0
        if imm == BREAK_SYSCALL:
            if self.syscall_handler is None:
                raise IllegalInstructionFault("no syscall handler installed")
            self.issue.flush()
            self.syscall_handler(self)
            self.pc += 1
            return
        if imm >= BREAK_NATIVE_BASE:
            if self.native_handler is None:
                raise IllegalInstructionFault("no native handler installed")
            self.issue.flush()
            self.native_handler(self, imm - BREAK_NATIVE_BASE)
            self.pc += 1
            return
        raise IllegalInstructionFault(f"break {imm:#x}")
