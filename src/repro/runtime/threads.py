"""Multi-threaded guests: the paper's stated future work (section 4.4).

The paper's prototype "does not support multi-threaded applications
since accessing the bitmap is not serialized".  This module adds
threading to the reproduction so that limitation can be studied:

* a round-robin scheduler time-slices one simulated core between guest
  threads (quantum in instructions, a fixed context-switch cost);
* ``thread_create`` / ``thread_join`` / ``thread_yield`` and a mutex
  family are exposed to MiniC as natives;
* each thread gets its own architectural context — including its NaT
  bits, so register taint is per-thread exactly as hardware would keep
  it — while memory, the taint bitmap and the caches are shared;
* by default the scheduler may preempt *inside* an instrumentation
  sequence, reproducing the unserialized-bitmap race the paper warns
  about (a byte-level tag read-modify-write torn by a sibling thread
  can lose a taint bit).  ``serialize_bitmap=True`` defers preemption
  to instrumentation-sequence boundaries, modelling the serialized
  bitmap access the paper leaves to future work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cpu.core import CPU, CpuContext, code_index
from repro.cpu.faults import RunawayError
from repro.isa.operands import GR_FIRST_ARG, GR_RET
from repro.mem.address import REGION_STACK, make_address

#: Stack placement: each thread's stack top, 1 MiB apart.
_STACK_SPACING = 1 << 20
_MAIN_STACK_OFFSET = 1 << 30


def thread_stack_top(tid: int) -> int:
    """Initial stack pointer for a thread id."""
    return make_address(REGION_STACK, _MAIN_STACK_OFFSET - tid * _STACK_SPACING)


@dataclass
class GuestThread:
    """Scheduler bookkeeping for one guest thread."""
    tid: int
    context: Optional[CpuContext]  # None while running on the core
    status: str = "ready"  # ready | running | blocked | done
    exit_value: int = 0
    join_waiters: List[int] = field(default_factory=list)


@dataclass
class Mutex:
    """A guest mutex: holder plus FIFO waiters."""
    holder: Optional[int] = None  # tid
    waiters: List[int] = field(default_factory=list)


class DeadlockError(RuntimeError):
    """Every live thread is blocked."""


class ThreadManager:
    """Round-robin scheduler over one simulated core."""

    def __init__(self, machine, *, quantum: int = 800,
                 switch_cost: float = 250.0,
                 serialize_bitmap: bool = False) -> None:
        self.machine = machine
        self.cpu: CPU = machine.cpu
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.serialize_bitmap = serialize_bitmap
        self.threads: Dict[int, GuestThread] = {
            0: GuestThread(tid=0, context=None, status="running")
        }
        self.current_tid = 0
        self._next_tid = 1
        self.mutexes: Dict[int, Mutex] = {}
        self._next_mutex = 1
        self.context_switches = 0

    # -- thread lifecycle -------------------------------------------------

    @property
    def current(self) -> GuestThread:
        """The thread owning the core right now."""
        return self.threads[self.current_tid]

    def spawn(self, func_addr: int, arg: int) -> int:
        """Create a thread running ``func(arg)``; returns its tid."""
        tid = self._next_tid
        self._next_tid += 1
        entry = code_index(func_addr)
        if not 0 <= entry < len(self.machine.program.code):
            raise ValueError(f"thread entry {func_addr:#x} is not code")
        context = self._fresh_context(entry, arg, tid)
        self.threads[tid] = GuestThread(tid=tid, context=context)
        return tid

    def _fresh_context(self, entry: int, arg: int, tid: int) -> CpuContext:
        from repro.cpu.core import code_address
        from repro.isa.operands import GR_SP

        gr = [0] * len(self.cpu.gr)
        nat = [False] * len(self.cpu.nat)
        pr = [False] * len(self.cpu.pr)
        pr[0] = True
        br = [0] * len(self.cpu.br)
        gr[GR_SP] = thread_stack_top(tid)
        gr[GR_FIRST_ARG] = arg
        # Keep the current NaT source alive for 'global' natgen builds.
        gr[31] = self.cpu.gr[31]
        nat[31] = self.cpu.nat[31]
        # Returning from the thread function lands in __thread_exit.
        exit_index = self.machine.program.label_index("__thread_exit")
        br[0] = code_address(exit_index)
        return CpuContext(gr=gr, nat=nat, pr=pr, br=br, unat=0, pc=entry)

    def exit_current(self, value: int) -> None:
        """Terminate the running thread (from the __thread_exit stub)."""
        thread = self.current
        if thread.tid == 0:
            # Main thread exiting ends the process via the exit syscall
            # path; treat a stray __thread_exit the same way.
            self.cpu.exit_code = value
            self.cpu.halted = True
            return
        thread.status = "done"
        thread.exit_value = value
        for waiter_tid in thread.join_waiters:
            waiter = self.threads[waiter_tid]
            waiter.status = "ready"
            # join() returns the exit value in r8 when the waiter wakes.
            waiter.context.gr[GR_RET] = value & ((1 << 64) - 1)
            waiter.context.nat[GR_RET] = False
        thread.join_waiters.clear()
        self.cpu.yield_requested = True

    def join(self, tid: int) -> Optional[int]:
        """Join another thread; returns its value or blocks (None)."""
        target = self.threads.get(tid)
        if target is None or tid == self.current_tid:
            return -1
        if target.status == "done":
            return target.exit_value
        target.join_waiters.append(self.current_tid)
        self.current.status = "blocked"
        self.cpu.yield_requested = True
        return None

    def yield_now(self) -> None:
        """End the current slice after this instruction."""
        self.cpu.yield_requested = True

    # -- mutexes -----------------------------------------------------------

    def mutex_create(self) -> int:
        """Allocate a new mutex id."""
        mid = self._next_mutex
        self._next_mutex += 1
        self.mutexes[mid] = Mutex()
        return mid

    def mutex_lock(self, mid: int) -> bool:
        """True if acquired immediately; False if the caller now blocks."""
        mutex = self.mutexes.setdefault(mid, Mutex())
        if mutex.holder is None:
            mutex.holder = self.current_tid
            return True
        mutex.waiters.append(self.current_tid)
        self.current.status = "blocked"
        self.cpu.yield_requested = True
        return False

    def mutex_unlock(self, mid: int) -> None:
        """Release a mutex, waking the next waiter FIFO-style."""
        mutex = self.mutexes.get(mid)
        if mutex is None or mutex.holder != self.current_tid:
            return
        if mutex.waiters:
            next_tid = mutex.waiters.pop(0)
            mutex.holder = next_tid
            self.threads[next_tid].status = "ready"
        else:
            mutex.holder = None

    # -- scheduling -----------------------------------------------------------

    @property
    def multi_threaded(self) -> bool:
        """True once any thread beyond main exists."""
        return len(self.threads) > 1

    def _next_thread(self) -> Optional[GuestThread]:
        """Round-robin: the next ready thread after the current one."""
        tids = sorted(self.threads)
        if not tids:
            return None
        start = tids.index(self.current_tid) if self.current_tid in tids else 0
        rotation = tids[start + 1:] + tids[:start + 1]
        for tid in rotation:
            if self.threads[tid].status in ("ready", "running"):
                return self.threads[tid]
        return None

    def _switch_to(self, thread: GuestThread) -> None:
        if thread.tid == self.current_tid:
            return
        old = self.current
        if old.status == "running":
            old.status = "ready"
        old.context = self.cpu.save_context()
        self.cpu.load_context(thread.context)
        thread.context = None
        thread.status = "running"
        previous_tid = self.current_tid
        self.current_tid = thread.tid
        self.context_switches += 1
        self.cpu.counters.add_io_cycles(self.switch_cost)
        obs = self.machine.obs
        if obs is not None:
            from repro.obs.events import ThreadSwitchEvent

            obs.tracer.emit(ThreadSwitchEvent(
                from_tid=previous_tid,
                to_tid=thread.tid,
                instruction_count=self.cpu.counters.instructions,
                switches=self.context_switches,
            ))

    def _drain_instrumentation(self, budget: int) -> None:
        """With serialized bitmap access, never preempt mid-sequence."""
        cpu = self.cpu
        code = self.machine.program.code
        n = len(code)
        step_fast = cpu.step_fast
        extra = 0
        while (not cpu.halted and not cpu.yield_requested
               and extra < budget
               and 0 <= cpu.pc < n
               and code[cpu.pc].role is not None):
            step_fast()
            extra += 1
        cpu.issue.flush()

    def run_all(self, max_instructions: int = 200_000_000) -> int:
        """Schedule threads until the process exits; returns exit code."""
        remaining = max_instructions
        while True:
            if self.cpu.halted:
                return self.cpu.exit_code
            thread = self._next_thread()
            if thread is None:
                if all(t.status == "done" for t in self.threads.values()
                       if t.tid != 0):
                    # Only the main thread could run and it is not ready:
                    # cannot happen — main blocks only in join/lock.
                    raise DeadlockError("no runnable thread")
                raise DeadlockError(
                    "all threads blocked: "
                    + ", ".join(f"t{t.tid}={t.status}" for t in self.threads.values())
                )
            self._switch_to(thread)
            executed = self.cpu.run_slice(min(self.quantum, remaining))
            if self.serialize_bitmap and not self.cpu.yield_requested:
                self._drain_instrumentation(200)
            remaining -= executed
            if remaining <= 0:
                raise RunawayError("instruction budget exhausted (threads)")
