"""Checkpoint benchmark: COW delta capture, recover-mode throughput
and live-migration round trips.

Four experiments, one report (``BENCH_ckpt.json``):

* **capture scaling** — full-snapshot capture pays for the resident
  set; delta capture pays only for pages touched since the last
  checkpoint.  Measured over growing resident footprints.
* **throughput** — the webserver mix run in ``standard`` mode (no
  checkpointing), ``recover`` with COW deltas, and ``recover`` with
  full per-request snapshots: the headline claim is delta-checkpointed
  recover mode within 10% of standard.
* **equivalence** — the resilbench attack mix under ``use_delta``
  on/off: quarantines and final machine states compared, under both
  engines.
* **migration** — pack a mid-stream session (pending queue, live
  taint, quarantine evidence) and replay it on a fresh worker; the
  response streams are compared.  Pack/rehydrate cost and blob size
  are reported.

Run and gated as the ``ckpt`` suite of :mod:`repro.harness.suites`,
whose gate table holds the conditions::

    PYTHONPATH=src python -m repro.harness.suites ckpt --quick --gate
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.apps.webserver import (
    make_request,
    overflow_request,
    runaway_request,
    traversal_request,
)
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet.driver import FleetConfig, build_worker, migrate_worker
from repro.harness.formatting import ratio_quartiles
from repro.harness.runners import paired_times
from repro.mem import PAGE_SIZE, REGION_DATA, make_address
from repro.resil import DeltaCheckpoint, MachineCheckpoint
from repro.resil.migrate import pack_worker, rehydrate_worker

WATCHDOG = 2_000_000
ENGINES = ("reference", "predecoded")

#: Where capture-scaling seeds its synthetic resident block — far above
#: the webserver's live data so the guest never writes into it.
SEED_BASE = make_address(REGION_DATA, 0x40_0000)
#: Resident block of every throughput run: the webserver alone keeps
#: ~4 pages resident, too few for full and delta captures to differ.
THROUGHPUT_RESIDENT_PAGES = 128


def _machine(engine: str = "predecoded", mode: str = "recover",
             clean: int = 0, attacks: Sequence = ()):
    machine = build_worker(FleetConfig(
        variant="resil", options=BYTE_LEVEL, engine_mode=mode,
        recover_watchdog=WATCHDOG, engine=engine))
    attacks = list(attacks)
    for i in range(clean):
        machine.net.add_request(make_request(4))
        if i < len(attacks):
            machine.net.add_request(attacks[i])
    return machine


def _state_digest(machine) -> str:
    """Hash of everything rollback must make bit-identical."""
    h = hashlib.sha256()
    cpu = machine.cpu
    h.update(repr((list(cpu.gr), list(cpu.nat), list(cpu.pr),
                   list(cpu.br), cpu.pc, cpu.halted,
                   machine.counters.snapshot())).encode())
    for pno in sorted(machine.memory._pages):
        page = machine.memory._pages[pno]
        if any(page):
            h.update(pno.to_bytes(8, "little"))
            h.update(bytes(page))
    h.update(bytes(machine.console.out))
    h.update(repr([bytes(c.inbound)
                   for c in machine.net.quarantined]).encode())
    return h.hexdigest()


def capture_scaling(residents: Sequence[int] = (0, 32, 128)) -> List[Dict]:
    """Full vs delta capture cost as the resident footprint grows."""
    rows = []
    for extra_pages in residents:
        machine = _machine(mode="raise", clean=6)
        if extra_pages:
            machine.memory.write_bytes(
                SEED_BASE, b"\x5A" * (extra_pages * PAGE_SIZE))
        machine.cpu.run_slice(3_000)
        t0 = time.perf_counter()
        base = MachineCheckpoint.capture(machine)
        full_s = time.perf_counter() - t0
        machine.cpu.run_slice(4_000)
        t0 = time.perf_counter()
        delta = DeltaCheckpoint.capture(machine, base)
        delta_s = time.perf_counter() - t0
        rows.append({
            "resident_pages": machine.memory.pages_touched(),
            "full_pages": base.page_count,
            "full_ms": round(full_s * 1e3, 4),
            "delta_pages": delta.page_count,
            "delta_ms": round(delta_s * 1e3, 4),
        })
    return rows


def _serve_once(mode: str, requests: int,
                use_delta: bool) -> Tuple[float, object]:
    machine = _machine(mode=mode, clean=requests)
    machine.memory.write_bytes(
        SEED_BASE, b"\x5A" * (THROUGHPUT_RESIDENT_PAGES * PAGE_SIZE))
    if mode == "recover":
        machine.resil.use_delta = use_delta
    t0 = time.perf_counter()
    machine.run()
    return time.perf_counter() - t0, machine


def throughput(requests: int, repeats: int) -> Dict:
    """standard vs recover(delta) vs recover(full) on clean traffic.

    Median-of-N *marginal* per-request cost, with the three arms timed
    in :func:`~repro.harness.runners.paired_times` rounds (the arm
    order rotates each round).  Every fresh machine pays a fixed
    warm-up (compile cache on the first build, per-CPU predecode on the
    first slice) that dwarfs the per-request serving cost at bench
    scale; timing two run lengths back to back and taking the
    difference cancels it.  The statistic is the *median of per-round
    marginals* — not a difference of per-length minima, which lets one
    lucky short run inflate (or lucky long run deflate) the estimate —
    and ``delta_overhead_quartiles`` are the quartiles of the
    per-round delta/standard ratios, less one.
    """
    small = max(4, requests // 5)
    # Warm the shared compile cache so repeat 1 is comparable.
    _serve_once("raise", 1, True)
    arms = {"standard": ("raise", True),
            "recover_delta": ("recover", True),
            "recover_full": ("recover", False)}
    stats: Dict[str, Dict] = {}

    def marginal(name: str, mode: str, use_delta: bool):
        def arm() -> float:
            small_s, _ = _serve_once(mode, small, use_delta)
            large_s, machine = _serve_once(mode, requests, use_delta)
            stat = {"served": len(machine.net.completed)}
            if mode == "recover":
                sup = machine.resil
                stat["captures"] = sup.checkpoints_taken
                stat["delta_captures"] = sup.delta_captures
                stat["pages_captured"] = sup.pages_captured
            stats[name] = stat
            return (large_s - small_s) / (requests - small)
        return arm

    samples = paired_times(
        {name: marginal(name, *arm) for name, arm in arms.items()}, repeats)
    results = {}
    for name in arms:
        marginal_s = statistics.median(samples[name])
        results[name] = dict(
            {"ms_per_request": round(marginal_s * 1e3, 4),
             "rps": round(1.0 / marginal_s, 2)}, **stats[name])
    standard, delta, full = (results["standard"], results["recover_delta"],
                             results["recover_full"])
    q1, _median, q3 = ratio_quartiles(samples["recover_delta"],
                                      samples["standard"])
    return {
        "requests": requests,
        "repeats": repeats,
        "standard": standard,
        "recover_delta": delta,
        "recover_full": full,
        "delta_overhead": round(
            delta["ms_per_request"] / standard["ms_per_request"] - 1.0, 4),
        "delta_overhead_quartiles": [round(q1 - 1.0, 4), round(q3 - 1.0, 4)],
        "full_overhead": round(
            full["ms_per_request"] / standard["ms_per_request"] - 1.0, 4),
        "full_copies_more": full["pages_captured"] > delta["pages_captured"],
    }


def equivalence() -> Dict:
    """Attack mix with deltas on/off: identical quarantine, identical
    final state, under both engines."""
    attacks = (overflow_request(), traversal_request(), runaway_request())
    per_engine = {}
    for engine in ENGINES:
        digests = {}
        quarantined = {}
        for use_delta in (True, False):
            machine = _machine(engine, clean=4, attacks=attacks)
            machine.resil.use_delta = use_delta
            machine.run()
            key = "delta" if use_delta else "full"
            digests[key] = _state_digest(machine)
            quarantined[key] = len(machine.net.quarantined)
        per_engine[engine] = {
            "identical": digests["delta"] == digests["full"],
            "quarantined": quarantined["delta"],
            "digest": digests["delta"][:16],
        }
    return {
        "engines": per_engine,
        "identical": all(e["identical"] and e["quarantined"] == len(attacks)
                         for e in per_engine.values()),
    }


def migration() -> Dict:
    """Mid-stream move: pack at "before request 3", replay on a twin."""
    config = FleetConfig(variant="resil", options=BYTE_LEVEL,
                         recover_watchdog=WATCHDOG)
    source = build_worker(config, "src")
    for i in range(6):
        source.net.add_request(make_request(4))
        if i == 3:
            source.net.add_request(overflow_request())
    source.run()
    src_responses = [bytes(c.outbound) for c in source.net.completed]

    t0 = time.perf_counter()
    blob, target = migrate_worker(config, source, "tgt", at_request=3)
    move_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    target.run()
    replay_s = time.perf_counter() - t0
    identical = (
        [bytes(c.outbound) for c in target.net.completed] == src_responses
        and len(target.net.quarantined) == len(source.net.quarantined))

    # Isolated pack / rehydrate cost on the finished source state.
    t0 = time.perf_counter()
    blob_now = pack_worker(source)
    pack_s = time.perf_counter() - t0
    fresh = build_worker(config, "fresh")
    t0 = time.perf_counter()
    rehydrate_worker(blob_now, fresh)
    rehydrate_s = time.perf_counter() - t0

    return {
        "blob_bytes": len(blob),
        "move_ms": round(move_s * 1e3, 3),
        "replay_ms": round(replay_s * 1e3, 3),
        "pack_ms": round(pack_s * 1e3, 3),
        "rehydrate_ms": round(rehydrate_s * 1e3, 3),
        "digest_identical": identical,
        "quarantined": len(target.net.quarantined),
    }


def run_suite(quick: bool) -> Dict:
    """All four experiments; returns the report body."""
    residents: Tuple[int, ...] = (0, 32) if quick else (0, 32, 128, 512)
    return {
        "capture_scaling": capture_scaling(residents),
        "throughput": throughput(requests=120 if quick else 300,
                                 repeats=5 if quick else 7),
        "equivalence": equivalence(),
        "migration": migration(),
    }
