"""The guest operating-system layer: syscalls, file descriptors, natives.

Natives are the runtime-provided functions that the paper handles with
*wrap functions* (section 4.2): they run uninstrumented (host-side) but
apply an explicit taint summary to the bitmap — e.g. ``memcpy`` copies
the taint of the source range to the destination range.

Taint *sources* (section 3.3.1) live here too: ``read``/``recv`` mark
the destination buffer tainted when the corresponding channel (file,
network, stdin) is configured as untrusted.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.cpu.core import CPU
from repro.cpu.faults import IllegalInstructionFault
from repro.isa.operands import GR_FIRST_ARG, GR_RET, GR_SYSNUM
from repro.runtime.devices import Connection, Console, DeviceCosts, SimFileSystem, SimNetwork

#: Syscall numbers (r15).
SYS_EXIT = 0
SYS_THREAD_EXIT = 1

#: open() flags.
O_READ = 0
O_WRITE = 1

_FD_STDIN = 0
_FD_STDOUT = 1
_FD_STDERR = 2
_FD_FIRST_DYNAMIC = 8


@dataclass
class FileHandle:
    """State of one open file descriptor."""
    kind: str  # 'file-r' | 'file-w' | 'conn' | 'console' | 'stdin'
    path: str = ""
    pos: int = 0
    conn: Optional[Connection] = None
    write_buffer: bytearray = None


class GuestOS:
    """Syscall and native dispatch for one :class:`Machine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.costs: DeviceCosts = machine.costs
        self.fs: SimFileSystem = machine.fs
        self.net: SimNetwork = machine.net
        self.console: Console = machine.console
        self.stdin = b""
        self._stdin_pos = 0
        self._fds: Dict[int, FileHandle] = {}
        self._next_fd = _FD_FIRST_DYNAMIC
        #: fds opened, moved, written or closed since the current
        #: checkpoint epoch opened — the fd dirty set of the checkpoint
        #: epoch protocol (repro.resil.checkpoint).
        self.dirty_fds: Set[int] = set()
        #: Transient-I/O bookkeeping (resilience layer): retries absorbed
        #: by the backoff loop, and operations that gave up after
        #: exhausting ``DeviceCosts.io_retry_limit``.
        self.io_retries = 0
        self.io_failures = 0
        self._natives: Dict[str, Callable[[CPU], None]] = {}
        self._register_natives()

    # -- helpers -------------------------------------------------------

    def _arg(self, cpu: CPU, index: int) -> int:
        return cpu.read_gr(GR_FIRST_ARG + index)

    def _ret(self, cpu: CPU, value: int) -> None:
        cpu.write_gr(GR_RET, value & ((1 << 64) - 1), nat=False)

    def _charge(self, cpu: CPU, cycles: float) -> None:
        cpu.counters.add_io_cycles(cycles)

    def _taint_input(self, source: str, addr: int, length: int,
                     label: str = "", index: int = 0,
                     stream_offset: int = 0) -> None:
        if length > 0 and self.machine.policy_config.source_is_tainted(source):
            self.machine.taint_map.set_range(addr, length, True)
            self._record_origin(source, label or source, index,
                                addr, length, stream_offset)

    def _record_origin(self, source: str, label: str, index: int,
                       addr: int, length: int, stream_offset: int) -> None:
        """Register taint provenance + a trace event (tracing runs only)."""
        obs = self.machine.obs
        if obs is None:
            return
        from repro.obs.events import TaintSourceEvent

        origin = obs.provenance.record(source, label, index,
                                       addr, length, stream_offset)
        obs.tracer.emit(TaintSourceEvent(
            source=source,
            label=label,
            addr=addr,
            length=length,
            origin_id=origin.origin_id,
            stream_offset=stream_offset,
            instruction_count=self.machine.cpu.counters.instructions,
        ))

    def _alloc_fd(self, handle: FileHandle) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        self.dirty_fds.add(fd)
        return fd

    def _retry_io(self, cpu: CPU, faults, op: str) -> bool:
        """Absorb injected transient device errors with bounded backoff.

        Returns True when the operation may proceed (immediately, or
        after one or more retries — each charged an exponentially
        growing cycle cost), False when the retry budget is exhausted
        and the native should fail with -1, as a real driver would
        surface EIO after its reset attempts.
        """
        if faults is None or not faults.transient(op):
            return True
        backoff = self.costs.retry_backoff_base
        for _ in range(self.costs.io_retry_limit):
            self.io_retries += 1
            self._charge(cpu, backoff)
            backoff *= self.costs.retry_backoff_factor
            if not faults.transient(op):
                return True
        self.io_failures += 1
        return False

    # -- syscalls ---------------------------------------------------------

    def _trace_call(self, name: str, detail: str = "") -> None:
        obs = self.machine.obs
        if obs is None:
            return
        from repro.obs.events import SyscallEvent

        obs.tracer.emit(SyscallEvent(
            name=name, detail=detail,
            instruction_count=self.machine.cpu.counters.instructions))

    def syscall(self, cpu: CPU) -> None:
        """Dispatch a `break`-based syscall (exit, thread exit)."""
        number = cpu.read_gr(GR_SYSNUM)
        if self.machine.obs is not None:
            self._trace_call("exit" if number == SYS_EXIT else f"syscall#{number}")
        if number == SYS_EXIT:
            cpu.exit_code = cpu.read_gr(GR_FIRST_ARG)
            cpu.halted = True
            return
        if number == SYS_THREAD_EXIT:
            self.machine.threads.exit_current(cpu.read_gr(GR_FIRST_ARG))
            adaptive = self.machine.adaptive
            if adaptive is not None:
                adaptive.on_boundary(cpu)
            return
        raise IllegalInstructionFault(f"unknown syscall {number}")

    # -- native dispatch ------------------------------------------------------

    def native(self, cpu: CPU, index: int) -> None:
        """Dispatch a native (wrap-function) call by stub index."""
        names = self.machine.program.natives
        if not 0 <= index < len(names):
            raise IllegalInstructionFault(f"bad native index {index}")
        handler = self._natives.get(names[index])
        if handler is None:
            raise IllegalInstructionFault(f"native {names[index]!r} not provided")
        if self.machine.obs is not None:
            self._trace_call(names[index])
        spec = self.machine.spec
        if spec is not None:
            # Pre-dispatch: the pc still sits on the break, so an epoch
            # entered here checkpoints *before* the handler's effects —
            # a rollback re-executes this native exactly once.
            spec.before_native(cpu, names[index])
        self._charge(cpu, self.costs.native_base)
        handler(cpu)
        # Adaptive mode-switch point: the pc sits in the shared native
        # stub here, so no code-address translation of the pc itself is
        # needed and taint sources (read/recv/wire ingress) have just
        # run — the earliest moment new taint can exist.
        adaptive = self.machine.adaptive
        if adaptive is not None:
            adaptive.on_boundary(cpu)
        if spec is not None:
            spec.on_boundary(cpu)

    def _register_natives(self) -> None:
        n = self._natives
        n["open"] = self._native_open
        n["read"] = self._native_read
        n["write"] = self._native_write
        n["close"] = self._native_close
        n["accept"] = self._native_accept
        n["recv"] = self._native_recv
        n["send"] = self._native_send
        n["malloc"] = self._native_malloc
        n["free"] = self._native_free
        n["memcpy"] = self._native_memcpy
        n["memset"] = self._native_memset
        n["memcmp"] = self._native_memcmp
        n["rand"] = self._native_rand
        n["srand"] = self._native_srand
        n["system"] = self._native_system
        n["sql_exec"] = self._native_sql_exec
        n["is_tainted"] = self._native_is_tainted
        n["taint_region"] = self._native_taint_region
        n["clear_taint"] = self._native_clear_taint
        n["console_log"] = self._native_console_log
        n["thread_create"] = self._native_thread_create
        n["thread_join"] = self._native_thread_join
        n["thread_yield"] = self._native_thread_yield
        n["mutex_create"] = self._native_mutex_create
        n["mutex_lock"] = self._native_mutex_lock
        n["mutex_unlock"] = self._native_mutex_unlock

    # -- file and network natives -------------------------------------------

    def _native_open(self, cpu: CPU) -> None:
        path_addr = self._arg(cpu, 0)
        flags = cpu.read_gr(GR_FIRST_ARG + 1)
        path = self.machine.memory.read_cstring(path_addr)
        # High-level directory-traversal policies fire at this use point.
        self.machine.engine.check_use_point("fopen", path_addr, path,
                                            context=f"open({path.decode('latin-1')!r})")
        self._charge(cpu, self.costs.open_cost)
        # The simulated filesystem resolves ".." like a real kernel would
        # (that resolution is what directory-traversal attacks exploit).
        resolved = posixpath.normpath(path.decode("latin-1"))
        if flags == O_READ:
            if not self.fs.exists(resolved):
                self._ret(cpu, -1)
                return
            fd = self._alloc_fd(FileHandle(kind="file-r", path=resolved))
        else:
            fd = self._alloc_fd(FileHandle(kind="file-w", path=resolved,
                                           write_buffer=bytearray()))
        self._ret(cpu, fd)

    def _native_read(self, cpu: CPU) -> None:
        fd, buf, length = (self._arg(cpu, i) for i in range(3))
        if fd == _FD_STDIN:
            stream_offset = self._stdin_pos
            chunk = self.stdin[self._stdin_pos:self._stdin_pos + length]
            self._stdin_pos += len(chunk)
            source, label, stream_index = "stdin", "stdin", 0
        else:
            handle = self._fds.get(fd)
            if handle is None or handle.kind != "file-r":
                self._ret(cpu, -1)
                return
            if not self._retry_io(cpu, self.fs.faults, "read"):
                self._ret(cpu, -1)
                return
            data = self.fs.read(handle.path) or b""
            stream_offset = handle.pos
            chunk = data[handle.pos:handle.pos + length]
            if chunk and self.fs.faults is not None:
                # A truncated transfer delivers a short count, exactly
                # like a real short read; the guest's loop retries.
                chunk = chunk[:self.fs.faults.truncated_length(
                    "read", len(chunk))]
            handle.pos += len(chunk)
            self.dirty_fds.add(fd)
            source, label, stream_index = "file", handle.path, fd
        self.machine.memory.write_bytes(buf, chunk)
        self._taint_input(source, buf, len(chunk), label=label,
                          index=stream_index, stream_offset=stream_offset)
        self._charge(cpu, self.costs.file_base + self.costs.file_byte * len(chunk))
        self._ret(cpu, len(chunk))

    def _native_write(self, cpu: CPU) -> None:
        fd, buf, length = (self._arg(cpu, i) for i in range(3))
        data = self.machine.memory.read_bytes(buf, length)
        if fd in (_FD_STDOUT, _FD_STDERR):
            spec = self.machine.spec
            if spec is not None and spec.active:
                # Console output is externally visible: buffer it until
                # the speculation epoch commits.  (File writes are not
                # deferred — the checkpoint's fs/fd capture rewinds
                # them on rollback.)
                spec.defer_console(fd, data)
            else:
                self.console.write(fd, data)
            self._charge(cpu, self.costs.console_byte * length)
            self._ret(cpu, length)
            return
        handle = self._fds.get(fd)
        if handle is None or handle.kind != "file-w":
            self._ret(cpu, -1)
            return
        handle.write_buffer.extend(data)
        self.dirty_fds.add(fd)
        self._charge(cpu, self.costs.file_base + self.costs.file_byte * length)
        self._ret(cpu, length)

    def _native_close(self, cpu: CPU) -> None:
        fd = self._arg(cpu, 0)
        handle = self._fds.pop(fd, None)
        if handle is not None:
            self.dirty_fds.add(fd)
            if handle.kind == "file-w":
                self.fs.write(handle.path, bytes(handle.write_buffer))
        self._charge(cpu, self.costs.close_cost)
        self._ret(cpu, 0)

    def _native_accept(self, cpu: CPU) -> None:
        # Request boundary: the recovery supervisor checkpoints *before*
        # the pending connection is dequeued, so a rollback re-executes
        # this accept with the offender back at the head of the queue.
        resil = self.machine.resil
        if resil is not None:
            resil.on_request_boundary()
        conn = self.net.accept()
        self._charge(cpu, self.costs.accept_cost)
        if conn is None:
            self._ret(cpu, -1)
            return
        self._ret(cpu, self._alloc_fd(FileHandle(kind="conn", conn=conn)))

    def _native_recv(self, cpu: CPU) -> None:
        fd, buf, length = (self._arg(cpu, i) for i in range(3))
        handle = self._fds.get(fd)
        if handle is None or handle.kind != "conn":
            self._ret(cpu, -1)
            return
        if not self._retry_io(cpu, self.net.faults, "recv"):
            self._ret(cpu, -1)
            return
        stream_offset = handle.conn.read_pos
        chunk = self.net.recv(handle.conn, length)
        self.machine.memory.write_bytes(buf, chunk)
        if handle.conn.taint_mask is not None:
            self._apply_wire_tags(handle.conn, buf, len(chunk), stream_offset)
        else:
            self._taint_input("network", buf, len(chunk),
                              label=f"request#{handle.conn.index}",
                              index=handle.conn.index,
                              stream_offset=stream_offset)
        self._charge(cpu, self.costs.net_base + self.costs.net_byte * len(chunk))
        self._ret(cpu, len(chunk))

    def _apply_wire_tags(self, conn: Connection, addr: int, length: int,
                         stream_offset: int) -> None:
        """Ingress for wire-transported taint (repro.fleet).

        The connection carries its upstream tier's packed tag bits, so
        instead of asking the policy whether "network" is a tainted
        source, the exact bits are re-applied to the recv buffer: a
        request tainted at the frontend stays tainted here, and bytes
        the upstream considered clean stay clean.
        """
        if length <= 0:
            return
        from repro.taint.bitmap import slice_packed, unpack_flags

        packed = slice_packed(conn.taint_mask, stream_offset, length)
        self.machine.taint_map.import_range(addr, length, packed)
        if self.machine.obs is not None:
            flags = unpack_flags(packed, length)
            start = None
            for i, tainted in enumerate([*flags, False]):
                if tainted and start is None:
                    start = i
                elif not tainted and start is not None:
                    self._record_origin(
                        "wire", f"request#{conn.index}", conn.index,
                        addr + start, i - start, stream_offset + start)
                    start = None

    def _native_send(self, cpu: CPU) -> None:
        fd, buf, length = (self._arg(cpu, i) for i in range(3))
        handle = self._fds.get(fd)
        if handle is None or handle.kind != "conn":
            self._ret(cpu, -1)
            return
        if not self._retry_io(cpu, self.net.faults, "send"):
            self._ret(cpu, -1)
            return
        data = self.machine.memory.read_bytes(buf, length)
        # Cross-site-scripting policy H5 checks outbound HTML here.
        self.machine.engine.check_use_point("html_output", buf, data, context="send")
        outbound_tags = None
        if handle.conn.capture_taint:
            # Egress tagging (repro.fleet): remember the per-byte taint
            # of what was sent so the bytes can leave the machine as a
            # TaggedMessage with their tags still attached.
            outbound_tags = self.machine.taint_map.taint_flags(buf, length)
        spec = self.machine.spec
        if spec is not None and spec.active:
            # Externally visible effect under speculation: the payload
            # and its tags are computed *now* (machine state at send
            # time), but nothing reaches the peer until commit — a
            # rolled-back epoch must leave no phantom bytes on the wire.
            spec.defer_send(handle.conn, data, outbound_tags)
        else:
            self.net.send(handle.conn, data, outbound_tags)
        self._charge(cpu, self.costs.net_base + self.costs.net_byte * length)
        self._ret(cpu, length)

    # -- memory natives (wrap functions) ------------------------------------

    def _native_malloc(self, cpu: CPU) -> None:
        size = self._arg(cpu, 0)
        self._ret(cpu, self.machine.heap_alloc(size))

    def _native_free(self, cpu: CPU) -> None:
        # Bump allocator: the storage is never reused, but the block's
        # taint dies with it (freed data is not a live flow), which is
        # what lets an adaptive machine re-quiesce after a request.
        addr = self._arg(cpu, 0)
        size = self.machine._heap_sizes.pop(addr, 0)
        if size:
            self.machine.taint_map.set_range(addr, size, False)
        self._ret(cpu, 0)

    def _native_memcpy(self, cpu: CPU) -> None:
        dst, src, n = (self._arg(cpu, i) for i in range(3))
        data = self.machine.memory.read_bytes(src, n)
        self.machine.memory.write_bytes(dst, data)
        # Wrap-function taint summary: destination taint := source taint.
        self.machine.taint_map.copy_taint(dst, src, n)
        self._charge(cpu, self.costs.native_byte * n)
        self._ret(cpu, dst)

    def _native_memset(self, cpu: CPU) -> None:
        dst = self._arg(cpu, 0)
        value = cpu.read_gr(GR_FIRST_ARG + 1) & 0xFF
        n = self._arg(cpu, 2)
        fill_tainted = cpu.read_nat(GR_FIRST_ARG + 1)
        self.machine.memory.write_bytes(dst, bytes([value]) * n)
        self.machine.taint_map.set_range(dst, n, fill_tainted)
        self._charge(cpu, self.costs.native_byte * n)
        self._ret(cpu, dst)

    def _native_memcmp(self, cpu: CPU) -> None:
        a, b, n = (self._arg(cpu, i) for i in range(3))
        da = self.machine.memory.read_bytes(a, n)
        db = self.machine.memory.read_bytes(b, n)
        result = 0 if da == db else (-1 if da < db else 1)
        self._charge(cpu, self.costs.native_byte * n)
        self._ret(cpu, result)

    # -- misc natives -----------------------------------------------------------

    def _native_rand(self, cpu: CPU) -> None:
        self.machine.rng_state = (self.machine.rng_state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        self._ret(cpu, (self.machine.rng_state >> 33) & 0x7FFFFFFF)

    def _native_srand(self, cpu: CPU) -> None:
        self.machine.rng_state = self._arg(cpu, 0) or 1
        self._ret(cpu, 0)

    def _native_system(self, cpu: CPU) -> None:
        cmd_addr = self._arg(cpu, 0)
        cmd = self.machine.memory.read_cstring(cmd_addr)
        self.machine.engine.check_use_point("system", cmd_addr, cmd,
                                            context=f"system({cmd.decode('latin-1')!r})")
        self.machine.executed_commands.append(cmd.decode("latin-1"))
        self._charge(cpu, 50_000)
        self._ret(cpu, 0)

    def _native_sql_exec(self, cpu: CPU) -> None:
        query_addr = self._arg(cpu, 0)
        query = self.machine.memory.read_cstring(query_addr)
        self.machine.engine.check_use_point("sql", query_addr, query,
                                            context=f"sql({query.decode('latin-1')!r})")
        self.machine.executed_queries.append(query.decode("latin-1"))
        self._charge(cpu, 30_000)
        self._ret(cpu, 0)

    # -- taint debugging natives -------------------------------------------------

    def _native_is_tainted(self, cpu: CPU) -> None:
        addr = self._arg(cpu, 0)
        self._ret(cpu, 1 if self.machine.taint_map.is_tainted(addr) else 0)

    def _native_taint_region(self, cpu: CPU) -> None:
        addr, n = self._arg(cpu, 0), self._arg(cpu, 1)
        self.machine.taint_map.set_range(addr, n, True)
        if n > 0:
            self._record_origin("manual", "taint_region", 0, addr, n, 0)
        self._ret(cpu, 0)

    def _native_clear_taint(self, cpu: CPU) -> None:
        addr, n = self._arg(cpu, 0), self._arg(cpu, 1)
        self.machine.taint_map.set_range(addr, n, False)
        self._ret(cpu, 0)

    def _native_console_log(self, cpu: CPU) -> None:
        addr = self._arg(cpu, 0)
        text = self.machine.memory.read_cstring(addr)
        spec = self.machine.spec
        if spec is not None and spec.active:
            spec.defer_console(1, text + b"\n")
        else:
            self.console.write(1, text + b"\n")
        self._ret(cpu, 0)

    # -- threading natives (paper 4.4 future work) ----------------------------

    def _native_thread_create(self, cpu: CPU) -> None:
        func, arg = self._arg(cpu, 0), self._arg(cpu, 1)
        tid = self.machine.threads.spawn(func, arg)
        self._charge(cpu, 5_000)  # clone + stack setup
        self._ret(cpu, tid)

    def _native_thread_join(self, cpu: CPU) -> None:
        tid = self._arg(cpu, 0)
        value = self.machine.threads.join(tid)
        if value is not None:
            self._ret(cpu, value)
        # Otherwise the thread is now blocked; r8 is written on wake-up.

    def _native_thread_yield(self, cpu: CPU) -> None:
        self.machine.threads.yield_now()
        self._ret(cpu, 0)

    def _native_mutex_create(self, cpu: CPU) -> None:
        self._ret(cpu, self.machine.threads.mutex_create())

    def _native_mutex_lock(self, cpu: CPU) -> None:
        self.machine.threads.mutex_lock(self._arg(cpu, 0))
        self._ret(cpu, 0)

    def _native_mutex_unlock(self, cpu: CPU) -> None:
        self.machine.threads.mutex_unlock(self._arg(cpu, 0))
        self._ret(cpu, 0)
