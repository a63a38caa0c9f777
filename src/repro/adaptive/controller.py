"""The runtime mode controller for dual-version (adaptive) builds.

The controller runs at every native/syscall boundary — after the
handler, while the pc still sits in the *shared* native stub code that
both versions call — and decides which copy of the program the guest
resumes into:

* **track -> fast** only from a provably quiescent state: zero tainted
  granules (the taint map's O(1) ``live_granules`` counter), zero
  spilled NaTs (``ar.unat`` of the running and every saved context),
  and zero NaT bits on any register that can carry a live value across
  a call boundary.  Registers that are *dead at every call boundary by
  construction* — the allocator's caller-saved pool (values that live
  across a call are placed callee-saved or spilled), codegen statement
  scratch, and the instrumentation scratch registers — may carry stale
  NaT bits from already-dead tainted values; those are cleared on the
  way out, which is exactly what makes re-quiescing possible at all.
* **fast -> track** the moment the live counter goes nonzero (taint
  sources only fire inside natives/syscalls, so the controller is
  always standing at the boundary when it happens).

Switching translates every resumable code address between the two
copies: the 8 branch registers, any general register holding a mapped
code address, the live stack window of every thread (spilled return
addresses), and saved thread contexts.  The translation maps come from
:class:`repro.compiler.pipeline.AdaptiveLayout` anchors; an address
that does not map (native stubs, ``_start``, mid-expansion pcs of
preempted threads) is left alone — untranslated code is always the
*instrumented* copy or shared code, so the failure mode of a missed
translation is "runs tracked while clean": slower, never unsound.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.compiler.codegen import SCRATCH_A, SCRATCH_ADDR, SCRATCH_B
from repro.compiler.instrument import T_ADDR, T_BITS, T_LIN, T_MASK, T_OFF
from repro.compiler.pipeline import AdaptiveLayout
from repro.compiler.regalloc import CALLER_SAVED_POOL
from repro.cpu.core import CODE_SLOT_BYTES, code_address
from repro.isa.operands import GR_NAT_SOURCE, GR_SP, NUM_GR
from repro.mem.address import REGION_CODE, offset_of, region_of

#: Cycles charged per mode switch (pipeline drain + register/stack
#: fixup at a serialization point).  Deliberately conservative so the
#: adaptivebench speedup is not flattered by free switches.
SWITCH_COST_CYCLES = 200.0

#: General registers that are dead at every call/native boundary by
#: construction, so a stale NaT bit on them cannot be a live tainted
#: value: the register allocator's caller-saved pool (r14-r27 — values
#: live across a call go callee-saved or to stack slots), the code
#: generator's per-statement scratch (r28-r30), the SHIFT
#: instrumentation scratch (r2/r3, r9-r11) and the manufactured NaT
#: source r31.  Argument registers, r8 (return), callee-saved r4-r7 and
#: sp are *not* here — a NaT on any of those blocks fast mode.
BOUNDARY_DEAD_GRS = frozenset(
    set(CALLER_SAVED_POOL)
    | {SCRATCH_A.index, SCRATCH_B.index, SCRATCH_ADDR.index}
    | {T_LIN.index, T_ADDR.index, T_BITS.index, T_OFF.index, T_MASK.index}
    | {GR_NAT_SOURCE}
)

MODE_TRACK = "track"
MODE_FAST = "fast"


class AdaptiveController:
    """Owns the machine's tracking mode and performs the hot switches."""

    def __init__(self, machine) -> None:
        layout = machine.compiled.adaptive
        self.machine = machine
        program = machine.program
        #: code index -> code index translation maps.  ``to_fast`` maps
        #: every track anchor (plus the function entry) to its clean
        #: twin; ``to_track`` maps *every* fast index back — entering
        #: track mode must never leave a fast address behind.
        self.to_fast: Dict[int, int] = {}
        self.to_track: Dict[int, int] = {}
        for name, anchors in layout.anchors.items():
            t0, _t1 = program.functions[name]
            f0, _f1 = program.functions[AdaptiveLayout.fast_name(name)]
            self.to_fast[t0] = f0
            self.to_track[f0] = t0
            for k, off in enumerate(anchors):
                self.to_fast[t0 + off] = f0 + k
                # f0 itself stays mapped to the function entry (so a
                # translated function pointer re-runs the natgen
                # prologue); ordinal 0 can never be a return address.
                self.to_track.setdefault(f0 + k, t0 + off)
        #: Execution starts in ``_start`` -> instrumented ``main``, so
        #: the machine is born tracking; the first quiescent boundary
        #: (typically the first ``accept``) drops it to fast mode.
        self.mode = MODE_TRACK
        self.switches_to_fast = 0
        self.switches_to_track = 0
        #: Instruction counts at which switches happened (bounded; for
        #: tests and forensics, not metrics).
        self.switch_log = []

    # -- boundary hook -----------------------------------------------------

    def on_boundary(self, cpu) -> None:
        """Called by GuestOS after every native/syscall handler."""
        if cpu.halted:
            return
        live = self.machine.taint_map.live_granules
        if self.mode == MODE_FAST:
            if live or cpu.unat:
                spec = self.machine.spec
                if spec is not None and spec.active:
                    # Speculation holds fast mode open with live taint:
                    # the epoch's range guards stand in for tracking,
                    # and its own boundary hook (which runs after this
                    # one) judges commit/rollback.
                    return
                self._switch(cpu, MODE_TRACK)
        elif live == 0 and self._quiescent(cpu):
            self._switch(cpu, MODE_FAST)

    # -- quiescence --------------------------------------------------------

    def _quiescent(self, cpu) -> bool:
        """True when no live tainted value can exist anywhere.

        The bitmap is already known empty (the caller checked the live
        counter); what remains is register state: spilled NaTs in any
        context's ``ar.unat``, and NaT bits on boundary-live registers.
        """
        if cpu.unat:
            return False
        nat = cpu.nat
        for i in range(1, NUM_GR):
            if nat[i] and i not in BOUNDARY_DEAD_GRS:
                return False
        for thread in self.machine.threads.threads.values():
            ctx = thread.context
            if ctx is None or thread.status == "done":
                continue
            if ctx.unat:
                return False
            # A preempted context can be stopped anywhere, so no
            # calling-convention argument applies: any NaT except the
            # manufactured source blocks fast mode.
            for i in range(1, NUM_GR):
                if ctx.nat[i] and i != GR_NAT_SOURCE:
                    return False
        return True

    # -- switching ---------------------------------------------------------

    def _switch(self, cpu, mode: str) -> None:
        mapping = self.to_fast if mode == MODE_FAST else self.to_track
        trigger_pc = cpu.pc
        self._translate_regs(cpu.gr, cpu.br, mapping)
        if mode == MODE_TRACK:
            # Mid-function track entries skip the natgen prologue, so
            # the controller re-manufactures the NaT source itself.
            cpu.gr[GR_NAT_SOURCE] = 0
            cpu.nat[GR_NAT_SOURCE] = True
        else:
            for i in BOUNDARY_DEAD_GRS:
                cpu.nat[i] = False
        self._translate_stacks(cpu, mapping)
        self._translate_contexts(mapping)
        self.mode = mode
        cpu.counters.io_cycles += SWITCH_COST_CYCLES
        if mode == MODE_FAST:
            self.switches_to_fast += 1
        else:
            self.switches_to_track += 1
        if len(self.switch_log) < 64:
            self.switch_log.append(
                (mode, trigger_pc, cpu.counters.instructions))
        self._emit(mode, trigger_pc, cpu)

    def _translate_value(self, value: int, mapping) -> Optional[int]:
        if region_of(value) != REGION_CODE:
            return None
        offset = offset_of(value)
        if offset % CODE_SLOT_BYTES:
            return None
        new_index = mapping.get(offset // CODE_SLOT_BYTES - 1)
        return None if new_index is None else code_address(new_index)

    def _translate_regs(self, gr, br, mapping) -> None:
        for i in range(1, len(gr)):
            new = self._translate_value(gr[i], mapping)
            if new is not None:
                gr[i] = new
        for i in range(len(br)):
            new = self._translate_value(br[i], mapping)
            if new is not None:
                br[i] = new

    def _translate_stacks(self, cpu, mapping) -> None:
        """Rewrite mapped code addresses in every live stack window.

        Spilled return addresses (``st8.spill`` of b0 in prologues) are
        the load-bearing case; the scan is conservative over all 8-byte
        words from each context's sp to its stack top.
        """
        from repro.runtime.threads import thread_stack_top

        threads = self.machine.threads
        self._translate_stack_window(
            cpu.gr[GR_SP], thread_stack_top(threads.current_tid), mapping)
        for thread in threads.threads.values():
            ctx = thread.context
            if ctx is None or thread.status == "done":
                continue
            self._translate_stack_window(
                ctx.gr[GR_SP], thread_stack_top(thread.tid), mapping)

    def _translate_stack_window(self, sp: int, top: int, mapping) -> None:
        memory = self.machine.memory
        addr = sp & ~7
        while addr < top:
            new = self._translate_value(memory.load(addr, 8), mapping)
            if new is not None:
                memory.store(addr, 8, new)
            addr += 8

    def _translate_contexts(self, mapping) -> None:
        for thread in self.machine.threads.threads.values():
            ctx = thread.context
            if ctx is None or thread.status == "done":
                continue
            self._translate_regs(ctx.gr, ctx.br, mapping)
            new_pc = mapping.get(ctx.pc)
            if new_pc is not None:
                ctx.pc = new_pc
            if mapping is self.to_track:
                ctx.gr[GR_NAT_SOURCE] = 0
                ctx.nat[GR_NAT_SOURCE] = True

    # -- observability -----------------------------------------------------

    def _emit(self, mode: str, trigger_pc: int, cpu) -> None:
        obs = self.machine.obs
        if obs is None:
            return
        from repro.obs.events import AdaptiveSwitchEvent

        obs.tracer.emit(AdaptiveSwitchEvent(
            direction=("adaptive.enter_fast" if mode == MODE_FAST
                       else "adaptive.enter_track"),
            trigger_pc=trigger_pc,
            live_bytes=self.machine.taint_map.live_bytes,
            instruction_count=cpu.counters.instructions,
        ))

    # -- checkpoint support (repro.resil) ----------------------------------

    def capture(self) -> tuple:
        return (self.mode, self.switches_to_fast, self.switches_to_track,
                list(self.switch_log))

    def restore(self, state: tuple) -> None:
        self.mode, self.switches_to_fast, self.switches_to_track, log = state
        self.switch_log = list(log)
