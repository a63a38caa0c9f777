"""The taint-preserving wire format: payload bytes + their tag bits.

SHIFT's protection is end-to-end only while the taint travels *with*
the data.  Inside one machine the bitmap does that; the moment bytes
cross a machine boundary (frontend -> backend, tier 1 -> tier 2) the
tags must ride along or the backend sees clean bytes and every policy
goes blind.  :class:`TaggedMessage` is that transport: a self-delimiting
binary frame carrying the payload, a packed per-byte tag vector (1/8th
of the payload, the same density as the in-memory bitmap), the
producer's tracking granularity, and a CRC.

Ingress is symmetric: :func:`repro.fleet.driver.run_worker` queues the
payload on a worker's :class:`~repro.runtime.devices.SimNetwork` with
the tag vector attached, and the guest-side ``recv`` native re-applies
exactly those bits to the destination buffer (see
``GuestOS._apply_wire_tags``).

Frame layout (little-endian)::

    magic      4s   b"STM1"
    granular   u8   producer granularity (1 = byte, 8 = word)
    _pad       u8   0
    request_id u32  producer-side request number
    origin_len u16  length of the origin label
    payload_len u32
    tags_len   u32  == ceil(payload_len / 8)
    origin     origin_len bytes (utf-8)
    payload    payload_len bytes
    tags       tags_len bytes (bit i of byte i>>3 = taint of payload[i])
    crc32      u32  over everything above
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List

from repro.taint.bitmap import pack_flags, unpack_flags

MAGIC = b"STM1"
_HEADER = struct.Struct("<4sBBIHII")
_CRC = struct.Struct("<I")

#: Granularities a conforming producer may declare.
VALID_GRANULARITIES = (1, 8)


class WireFormatError(ValueError):
    """A frame that cannot be decoded (truncated, corrupt, or alien)."""


@dataclass
class TaggedMessage:
    """One payload crossing a machine boundary with its taint attached."""

    payload: bytes
    #: Packed per-byte taint bits, ``ceil(len(payload)/8)`` bytes.
    tags: bytes = b""
    #: Tracking granularity of the producing machine (metadata only —
    #: the tag vector itself is always byte-granular).
    granularity: int = 1
    #: Producer-side request number (Connection.index at the producer).
    request_id: int = 0
    #: Where the message came from, e.g. ``"frontend:w0"``.
    origin: str = ""

    def __post_init__(self) -> None:
        need = (len(self.payload) + 7) >> 3
        if not self.tags:
            self.tags = bytes(need)
        if len(self.tags) != need:
            raise WireFormatError(
                f"tag vector is {len(self.tags)} bytes, payload of "
                f"{len(self.payload)} needs {need}")
        if self.granularity not in VALID_GRANULARITIES:
            raise WireFormatError(f"bad granularity {self.granularity}")

    # -- construction --------------------------------------------------

    @classmethod
    def from_flags(cls, payload: bytes, flags: List[bool],
                   **meta) -> "TaggedMessage":
        """Build from per-byte taint flags (padded/truncated to fit)."""
        flags = list(flags[:len(payload)])
        flags += [False] * (len(payload) - len(flags))
        return cls(payload=bytes(payload), tags=pack_flags(flags), **meta)

    @classmethod
    def capture(cls, machine, addr: int, length: int,
                **meta) -> "TaggedMessage":
        """Snapshot a guest-memory range plus its bitmap slice."""
        payload = bytes(machine.memory.read_bytes(addr, length))
        tags = machine.taint_map.export_range(addr, length)
        meta.setdefault("granularity", machine.taint_map.granularity)
        return cls(payload=payload, tags=tags, **meta)

    @classmethod
    def capture_response(cls, machine, conn, **meta) -> "TaggedMessage":
        """Egress: a connection's outbound bytes + their recorded tags.

        Requires the connection to have run with ``capture_taint=True``
        (the fleet layer's default for proxied connections).
        """
        payload = bytes(conn.outbound)
        flags = conn.outbound_tags or []
        meta.setdefault("granularity", machine.taint_map.granularity)
        meta.setdefault("request_id", conn.index)
        return cls.from_flags(payload, flags, **meta)

    # -- taint accessors ------------------------------------------------

    def flags(self) -> List[bool]:
        """Per-byte taint flags of the payload."""
        return unpack_flags(self.tags, len(self.payload))

    @property
    def tainted_count(self) -> int:
        """Number of tainted payload bytes."""
        return sum(byte.bit_count() for byte in self.tags)

    @property
    def any_tainted(self) -> bool:
        """True when at least one payload byte is tainted."""
        return any(self.tags)

    # -- serialisation ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode the frame (header + body + CRC32)."""
        origin = self.origin.encode("utf-8")
        head = _HEADER.pack(MAGIC, self.granularity, 0,
                            self.request_id & 0xFFFFFFFF,
                            len(origin), len(self.payload), len(self.tags))
        body = head + origin + self.payload + self.tags
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TaggedMessage":
        """Decode one frame; raises :class:`WireFormatError` on damage."""
        if len(data) < _HEADER.size + _CRC.size:
            raise WireFormatError(f"frame truncated at {len(data)} bytes")
        magic, granularity, _pad, request_id, origin_len, payload_len, \
            tags_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise WireFormatError(f"bad magic {magic!r}")
        if granularity not in VALID_GRANULARITIES:
            raise WireFormatError(f"bad granularity {granularity}")
        total = _HEADER.size + origin_len + payload_len + tags_len + _CRC.size
        if len(data) != total:
            raise WireFormatError(
                f"frame is {len(data)} bytes, header declares {total}")
        if tags_len != (payload_len + 7) >> 3:
            raise WireFormatError(
                f"tag vector of {tags_len} bytes does not cover a "
                f"{payload_len}-byte payload")
        (crc,) = _CRC.unpack_from(data, total - _CRC.size)
        if crc != zlib.crc32(data[:total - _CRC.size]):
            raise WireFormatError("CRC mismatch")
        pos = _HEADER.size
        origin = data[pos:pos + origin_len].decode("utf-8")
        pos += origin_len
        payload = data[pos:pos + payload_len]
        pos += payload_len
        tags = data[pos:pos + tags_len]
        return cls(payload=payload, tags=tags, granularity=granularity,
                   request_id=request_id, origin=origin)

    def describe(self) -> str:
        """One-line summary for logs and incident reports."""
        return (f"msg#{self.request_id} from {self.origin or '?'}: "
                f"{len(self.payload)} bytes, {self.tainted_count} tainted")
