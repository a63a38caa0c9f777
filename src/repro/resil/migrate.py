"""Live worker migration: checkpoint chains as a wire transport.

A delta chain (:mod:`repro.resil.checkpoint`) is a complete, serialisable
description of a machine: base snapshot + per-request COW deltas of
pages, fds and connection cursors, register/OS/provenance state
included.  :func:`pack_worker` turns one
into a self-describing wire blob; :func:`rehydrate_worker` applies it to
a *freshly built* twin machine (same program, same configuration), which
then resumes exactly where the source stood — pending requests, live
taint bitmap, provenance, perf counters and all.  The fleet layer uses
this to move in-flight workers between hosts (rebalancing, zero-downtime
drain) instead of routing around them.

What travels by value, beyond the chain itself:

* console output, executed commands/queries — the checkpoint captures
  only their *lengths* (restore truncates, which suffices on the source
  machine where the content already exists); a fresh target starts
  empty, so the blob carries the actual prefixes and rehydrate seeds
  them before restoring.
* ``SimNetwork`` bookkeeping that restore deliberately preserves as
  external facts: the arrival counter, the drop counter and the
  quarantined-connection list.
* supervisor evidence (incidents, recovery counts) so forensic history
  survives the move.

Connection objects are shared by reference between the checkpoint state
and the fd table; a single pickle of the whole payload preserves that
sharing on the target.  The blob is integrity-checked (CRC32) and the
target's program is fingerprint-matched before anything is touched —
rehydrating onto a machine running different code would corrupt it.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from typing import Optional

from repro.resil.checkpoint import MachineCheckpoint, _SnapshotBase

#: Wire magic + format version.
MAGIC = b"SHFTMIG1"

_HEADER = struct.Struct("<I")  # crc32 of the pickled payload


class MigrationError(Exception):
    """A blob failed validation or does not match the target machine."""


def program_fingerprint(machine) -> str:
    """Deterministic digest of the guest program a machine runs."""
    h = hashlib.sha256()
    for instr in machine.program.code:
        h.update(str(instr).encode())
        h.update(b"\n")
    h.update(",".join(sorted(machine.program.natives)).encode())
    return h.hexdigest()


def pack_worker(machine, checkpoint: Optional[_SnapshotBase] = None, *,
                reason: str = "migrate",
                watermark: Optional[int] = None) -> bytes:
    """Serialise a worker's state (base + deltas) into a wire blob.

    With ``checkpoint=None`` the blob carries the machine's *current*
    state: a supervised machine appends one more delta to its chain
    (O(touched pages)); an unsupervised one takes a full snapshot.
    Passing an existing chain member instead packs the state *as of
    that checkpoint* — e.g. "just before request N was accepted" —
    which is how the fleet migrates a mid-stream session.

    ``watermark`` tags the blob with the highest request index whose
    effects it contains — the replication stream's replay cut-off (see
    :mod:`repro.chaos.replica`).  Readers use :func:`blob_watermark`;
    blobs packed without one report -1 (no replay guarantee).
    """
    sup = machine.resil
    if checkpoint is None:
        if sup is not None:
            checkpoint = sup.checkpoint_now(reason)
        else:
            checkpoint = MachineCheckpoint.capture(machine)
    chain = []
    node: Optional[_SnapshotBase] = checkpoint
    while node is not None:
        chain.append(node)
        node = node.parent
    chain.reverse()

    payload = {
        "version": 1,
        "machine_id": machine.machine_id,
        "fingerprint": program_fingerprint(machine),
        "granularity": machine.taint_map.granularity,
        "chain": chain,
        "console_out": bytes(machine.console.out),
        "console_err": bytes(machine.console.err),
        "commands": list(machine.executed_commands),
        "queries": list(machine.executed_queries),
        "next_index": machine.net._next_index,
        "net_dropped": machine.net.dropped,
        "quarantined": list(machine.net.quarantined),
        "incidents": [] if sup is None else list(sup.incidents),
        "recoveries": 0 if sup is None else sup.recoveries,
    }
    if watermark is not None:
        payload["watermark"] = watermark
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + _HEADER.pack(zlib.crc32(body)) + body


def blob_watermark(blob: bytes) -> int:
    """Request-index watermark a replication blob was packed with.

    -1 means the blob predates watermarks (or was a plain migration
    blob): it carries state but promises nothing about which requests'
    effects are inside, so a recovery must replay everything open.
    """
    return unpack_blob(blob).get("watermark", -1)


def unpack_blob(blob: bytes) -> dict:
    """Validate a wire blob and return its payload dict."""
    if len(blob) < len(MAGIC) + _HEADER.size or not blob.startswith(MAGIC):
        raise MigrationError("not a migration blob (bad magic)")
    (crc,) = _HEADER.unpack_from(blob, len(MAGIC))
    body = blob[len(MAGIC) + _HEADER.size:]
    if zlib.crc32(body) != crc:
        raise MigrationError("migration blob failed its integrity check")
    # The CRC catches corruption, not forgery: only unpack blobs from
    # trusted peers (pickle.loads runs whatever the body asks it to).
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise MigrationError(
            f"migration blob body does not unpickle: {exc!r}") from exc
    if not isinstance(payload, dict):
        raise MigrationError(
            f"migration blob body is a {type(payload).__name__}, not a dict")
    if payload.get("version") != 1:
        raise MigrationError(
            f"unsupported migration format version {payload.get('version')}")
    return payload


def rehydrate_worker(blob: bytes, machine) -> None:
    """Apply a packed worker state to a freshly built twin machine.

    The target must run the same program (fingerprint-checked) at the
    same taint granularity.  After this returns, the target is
    state-identical to the source at pack time — ``machine.run()``
    resumes the in-flight session — and its recovery supervisor (when
    present) has adopted the migrated chain, so subsequent checkpoints
    continue as deltas on top of it.
    """
    payload = unpack_blob(blob)
    if payload["fingerprint"] != program_fingerprint(machine):
        raise MigrationError(
            "target machine runs a different program than the blob")
    if payload["granularity"] != machine.taint_map.granularity:
        raise MigrationError(
            f"taint granularity mismatch: blob {payload['granularity']}, "
            f"target {machine.taint_map.granularity}")

    # Seed the external-evidence state the checkpoint only truncates:
    # the restore below cuts these back to their at-checkpoint lengths.
    machine.console.out[:] = payload["console_out"]
    machine.console.err[:] = payload["console_err"]
    machine.executed_commands[:] = payload["commands"]
    machine.executed_queries[:] = payload["queries"]
    chain = payload["chain"]
    tip = chain[-1]
    net = machine.net
    net._next_index = payload["next_index"]
    # Quarantine/drop evidence is cut back to the packed checkpoint's
    # view: anything the source quarantined or refused *after* that
    # point belongs to requests the target will re-execute itself.
    net.dropped = tip._net_dropped
    net.quarantined[:] = payload["quarantined"][:tip._quarantined_len]

    tip.restore(machine)

    sup = machine.resil
    if sup is not None:
        sup.chain = list(chain)
        sup._checkpoint = tip
        sup._checkpoint_instr = tip.instruction_count
        # Keep only incidents for requests the target will *not*
        # re-execute (everything before the checkpoint's pending head;
        # an empty head means the pack point was end-of-session).
        # Instruction counts cannot order this: rollback rewinds the
        # counter, so a later checkpoint may count lower than the
        # incident it recovered from.
        head = tip.pending_head_index
        sup.incidents = [inc for inc in payload["incidents"]
                         if head == -1 or inc.request_index < head]
        sup.recoveries = len(sup.incidents)
