"""Simulated devices: filesystem, network, console, and their latencies.

The paper runs on real hardware with a real OS; here I/O is simulated
with fixed device latencies so that the server experiment (Fig. 6)
keeps its defining property — request handling is I/O-bound, so load/
store instrumentation barely shows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


@dataclass
class DeviceCosts:
    """Cycle costs charged for OS-level operations (not instrumented)."""

    syscall_base: float = 800.0
    open_cost: float = 6_000.0
    close_cost: float = 800.0
    file_byte: float = 1.5  # per byte read/written to a file
    file_base: float = 4_000.0
    net_byte: float = 3.0  # per byte sent/received on the network
    net_base: float = 15_000.0
    accept_cost: float = 20_000.0
    console_byte: float = 1.0
    native_base: float = 60.0  # trap + dispatch for a native call
    native_byte: float = 1.0  # per byte processed by a wrap function
    #: Transient-I/O retry policy (resilience layer): a recv/send/read
    #: that hits an injected transient device error is retried up to
    #: ``io_retry_limit`` times, each attempt charging an exponentially
    #: growing backoff in cycles.
    io_retry_limit: int = 3
    retry_backoff_base: float = 2_000.0
    retry_backoff_factor: float = 2.0


class SimFileSystem:
    """An in-memory filesystem keyed by absolute path."""

    def __init__(self, files: Optional[Dict[str, bytes]] = None) -> None:
        self.files: Dict[str, bytes] = dict(files or {})
        #: Optional :class:`repro.resil.transient.TransientErrorInjector`;
        #: None (the default) keeps the I/O natives on their zero-cost path.
        self.faults = None

    def exists(self, path: str) -> bool:
        """True if a file exists at the path."""
        return path in self.files

    def read(self, path: str) -> Optional[bytes]:
        """File contents, or None."""
        return self.files.get(path)

    def write(self, path: str, data: bytes) -> None:
        """Create/replace a file."""
        self.files[path] = data

    def append(self, path: str, data: bytes) -> None:
        """Append to (or create) a file."""
        self.files[path] = self.files.get(path, b"") + data


@dataclass
class Connection:
    """One network connection: inbound request bytes, outbound response."""

    inbound: bytes
    outbound: bytearray = field(default_factory=bytearray)
    read_pos: int = 0
    #: 1-based arrival number, used by taint provenance ("request #2").
    index: int = 0
    #: Wire-transported taint (repro.fleet): packed per-byte tag bits
    #: covering ``inbound``.  When set, the ``recv`` native re-applies
    #: exactly these tags on ingress instead of blanket-tainting the
    #: buffer from the policy's source configuration — the tags are the
    #: upstream tier's authoritative view of the data.
    taint_mask: Optional[bytes] = None
    #: When True, each ``send`` records the per-byte taint of the sent
    #: buffer so the response (or a proxied request) can leave the
    #: machine as a :class:`~repro.fleet.wire.TaggedMessage`.  Off by
    #: default: ordinary connections pay nothing on the send path.
    capture_taint: bool = False
    #: Per-byte taint flags of ``outbound`` (only when ``capture_taint``).
    outbound_tags: Optional[List[bool]] = None

    def recv(self, n: int) -> bytes:
        """Consume up to n inbound bytes."""
        chunk = self.inbound[self.read_pos:self.read_pos + n]
        self.read_pos += len(chunk)
        return chunk

    def send(self, data: bytes) -> None:
        """Append outbound bytes."""
        self.outbound.extend(data)

    def record_outbound_tags(self, flags: List[bool]) -> None:
        """Append per-byte taint flags for bytes just sent (egress hook)."""
        if self.outbound_tags is None:
            self.outbound_tags = []
        self.outbound_tags.extend(flags)


class SimNetwork:
    """Pending connections for a server guest (accept/recv/send).

    ``capacity`` bounds the pending-request queue (None = unbounded,
    the historical behaviour): once full, further ``add_request`` calls
    are *dropped* — counted in ``dropped``, which ``machine.metrics()``
    reports as ``net.dropped`` — instead of growing an unbounded backlog.
    The fleet frontend uses this as its per-worker backpressure signal.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("network queue capacity must be positive")
        self.capacity = capacity
        self.pending: Deque[Connection] = deque()
        self.completed: List[Connection] = []
        #: Connections removed by the recovery supervisor after a rollback.
        self.quarantined: List[Connection] = []
        #: Requests refused because the pending queue was at capacity.
        self.dropped = 0
        self._next_index = 1
        #: Connections whose cursors (``read_pos``, ``outbound``,
        #: ``outbound_tags``) moved since the current checkpoint epoch
        #: opened, keyed by ``Connection.index`` — the connection dirty
        #: set of the checkpoint epoch protocol (repro.resil.checkpoint).
        self.dirty: Dict[int, Connection] = {}
        #: Optional :class:`repro.resil.transient.TransientErrorInjector`;
        #: None (the default) keeps the I/O natives on their zero-cost path.
        self.faults = None

    def add_request(self, data: bytes, *, taint_mask: Optional[bytes] = None,
                    capture_taint: bool = False) -> Optional[Connection]:
        """Queue an inbound connection carrying the given bytes.

        Returns None (and counts a drop) when the bounded queue is full.
        ``taint_mask`` attaches wire-transported tags the recv path will
        re-apply; ``capture_taint`` records outbound taint for egress.
        """
        if self.capacity is not None and len(self.pending) >= self.capacity:
            self.dropped += 1
            return None
        conn = Connection(inbound=data, index=self._next_index,
                          taint_mask=taint_mask, capture_taint=capture_taint)
        self._next_index += 1
        self.pending.append(conn)
        return conn

    def accept(self) -> Optional[Connection]:
        """Pop the next pending connection (None when drained)."""
        if not self.pending:
            return None
        conn = self.pending.popleft()
        self.completed.append(conn)
        return conn

    def recv(self, conn: Connection, n: int) -> bytes:
        """Consume up to n of ``conn``'s inbound bytes (marks it dirty)."""
        self.dirty[conn.index] = conn
        return conn.recv(n)

    def send(self, conn: Connection, data: bytes,
             tags: Optional[List[bool]] = None) -> None:
        """Append response bytes, and their egress tags when recorded,
        to ``conn`` (marks it dirty)."""
        self.dirty[conn.index] = conn
        if tags is not None:
            conn.record_outbound_tags(tags)
        conn.send(data)


class Console:
    """Captures guest stdout/stderr."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.err = bytearray()

    def write(self, fd: int, data: bytes) -> None:
        """Append to stdout (fd 1) or stderr (fd 2)."""
        (self.err if fd == 2 else self.out).extend(data)

    @property
    def text(self) -> str:
        """Captured stdout as text."""
        return self.out.decode("latin-1")
