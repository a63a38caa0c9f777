"""Live worker migration: wire-blob integrity, mid-session moves with
live taint and pending queues, and drain-via-migration in the serving
simulator."""

import pickle
import struct
import zlib

import pytest

from repro.apps.webserver import make_request, overflow_request
from repro.compiler.instrument import ShiftOptions
from repro.fleet import FleetConfig, migrate_worker
from repro.fleet.driver import build_worker
from repro.resil.migrate import (
    MAGIC,
    MigrationError,
    pack_worker,
    program_fingerprint,
    rehydrate_worker,
    unpack_blob,
)
from repro.serve import (
    AutoscalerConfig,
    LoadConfig,
    LoadPhase,
    ServeSim,
    generate,
)
from tests.test_resil import _machine_state
from tests.test_serve import StubModel

ENGINES = ("reference", "predecoded")


def _config(engine="predecoded"):
    return FleetConfig(
        variant="resil", options=ShiftOptions(granularity=1),
        engine=engine, engine_mode="recover",
        recover_watchdog=2_000_000)


def _source(engine, requests, worker_id="src"):
    machine = build_worker(_config(engine), worker_id)
    for payload in requests:
        machine.net.add_request(payload)
    return machine


def _mix(clean=6, attack_at=None):
    requests = [make_request(4) for _ in range(clean)]
    if attack_at is not None:
        requests.insert(attack_at, overflow_request())
    return requests


class TestWireBlob:
    def test_roundtrip_payload_is_self_describing(self):
        machine = _source("predecoded", _mix(2))
        blob = pack_worker(machine)
        payload = unpack_blob(blob)
        assert payload["version"] == 1
        assert payload["fingerprint"] == program_fingerprint(machine)
        assert payload["granularity"] == 1
        assert payload["chain"][-1].pending_requests == 2

    def test_bad_magic_is_rejected(self):
        machine = _source("predecoded", _mix(1))
        blob = pack_worker(machine)
        with pytest.raises(MigrationError, match="magic"):
            unpack_blob(b"NOTMAGIC" + blob[len(MAGIC):])

    def test_corrupted_body_fails_the_integrity_check(self):
        machine = _source("predecoded", _mix(1))
        blob = bytearray(pack_worker(machine))
        blob[-1] ^= 0xFF
        with pytest.raises(MigrationError, match="integrity"):
            unpack_blob(bytes(blob))

    @pytest.mark.parametrize("body", [[1, 2], "version", None],
                             ids=["list", "str", "none"])
    def test_crc_valid_non_dict_body_is_rejected(self, body):
        pickled = pickle.dumps(body)
        blob = MAGIC + struct.pack("<I", zlib.crc32(pickled)) + pickled
        with pytest.raises(MigrationError, match="not a dict"):
            unpack_blob(blob)

    def test_crc_valid_garbage_body_is_rejected(self):
        body = b"\x80\x05not a pickle"
        blob = MAGIC + struct.pack("<I", zlib.crc32(body)) + body
        with pytest.raises(MigrationError, match="does not unpickle"):
            unpack_blob(blob)

    def test_rehydrate_refuses_a_different_program(self):
        machine = _source("predecoded", _mix(1))
        blob = pack_worker(machine)
        other = build_worker(
            FleetConfig(variant="standard",
                        options=ShiftOptions(granularity=1),
                        engine="predecoded", engine_mode="recover",
                        recover_watchdog=2_000_000),
            "other")
        with pytest.raises(MigrationError, match="different program"):
            rehydrate_worker(blob, other)


class TestLiveMigration:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_current_state_move_is_state_identical(self, engine):
        """Pack a worker mid-session — live taint in the bitmap, device
        queue pending — and rehydrate a twin: bit-identical state, and
        both finish the session in lockstep."""
        source = _source(engine, _mix(6))
        while (source.taint_map.live_granules == 0
               or not source.net.pending) and not source.cpu.halted:
            source.cpu.run_slice(2_000)
        assert source.taint_map.live_granules > 0
        assert source.net.pending

        blob, target = migrate_worker(_config(engine), source, "tgt")
        assert _machine_state(target) == _machine_state(source)
        assert target.taint_map.live_granules == source.taint_map.live_granules
        assert ([bytes(c.inbound) for c in target.net.pending]
                == [bytes(c.inbound) for c in source.net.pending])

        source.run()
        target.run()
        assert _machine_state(target) == _machine_state(source)
        assert bytes(target.console.out) == bytes(source.console.out)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mid_stream_move_replays_digest_identical(self, engine):
        """Migrate "just before request 3" out of a finished source run;
        the target re-executes the tail — including the attack — and
        produces byte-identical responses and the same quarantine."""
        config = _config(engine)
        source = _source(engine, _mix(6, attack_at=4))
        source.run()
        src_responses = [bytes(c.outbound) for c in source.net.completed]
        assert len(source.net.quarantined) == 1

        blob, target = migrate_worker(config, source, "tgt", at_request=3)
        assert len(target.net.pending) == 5  # requests 3..7 re-execute
        target.run()
        assert ([bytes(c.outbound) for c in target.net.completed]
                == src_responses)
        assert len(target.net.quarantined) == 1
        assert len(target.resil.incidents) == 1
        # The adopted chain keeps extending as deltas on the target.
        assert target.resil.delta_captures > 0

    def test_quarantine_evidence_survives_the_move(self):
        """Migrating *after* an incident carries the survivor set and
        the forensic record; the target does not re-quarantine."""
        source = _source("predecoded", _mix(6, attack_at=2))
        source.run()
        assert len(source.net.quarantined) == 1
        assert len(source.resil.incidents) == 1

        blob, target = migrate_worker(
            _config("predecoded"), source, "tgt", at_request=5)
        assert len(target.net.quarantined) == 1
        assert len(target.resil.incidents) == 1
        target.run()
        assert len(target.net.quarantined) == 1
        assert ([bytes(c.outbound) for c in target.net.completed]
                == [bytes(c.outbound) for c in source.net.completed])

    def test_at_request_needs_a_matching_chain_checkpoint(self):
        source = _source("predecoded", _mix(2))
        source.run()
        with pytest.raises(ValueError, match="no chain checkpoint"):
            migrate_worker(_config("predecoded"), source, "tgt",
                           at_request=99)


def _drain_heavy_load(offered=20_000.0, duration=20_000.0):
    # Arrivals every ~50 cycles against 20k-cycle service: both workers
    # are deep in queue by the controller's first tick, so the drain
    # victim always has work to ship in the migration blob.
    return LoadConfig(seed=11, phases=[LoadPhase(duration, offered)])


def _always_drain():
    # low_water far above any realistic depth: the controller drains at
    # every eligible tick, down to min_workers.
    return AutoscalerConfig(min_workers=1, max_workers=2,
                            high_water=1000.0, low_water=999.0,
                            interval=2_000.0, cooldown_ticks=0)


class TestServeDrainMigration:
    def _run(self, migrate):
        return ServeSim(
            workers=2, seed=3,
            service_model=StubModel(cycles=20_000.0,
                                    migration_cycles=5_000.0),
            autoscaler=_always_drain(), migrate_on_drain=migrate,
        ).run(generate(_drain_heavy_load()))

    def test_busy_queue_drain_ships_requests_in_the_blob(self):
        result = self._run(migrate=True)
        migrates = [e for e in result.scale_events
                    if e["action"] == "migrate"]
        assert migrates, "the controller never drained via migration"
        assert result.migrated > 0, "victim queue should have shipped"
        assert result.dropped == 0
        assert any(r.migrated for r in result.records)
        # Migration retires the victim immediately at its next request
        # boundary; plain drain would have served its queue out first.
        for event in migrates:
            retired_at = result.workers[event["worker"]].retired_at
            assert retired_at is not None

    def test_migration_loses_no_work_vs_plain_drain(self):
        plain = self._run(migrate=False)
        moved = self._run(migrate=True)
        assert moved.served == plain.served
        assert moved.quarantined == plain.quarantined
        assert moved.dropped == plain.dropped == 0
        assert plain.migrated == 0

    def test_drain_migration_is_deterministic(self):
        first = self._run(migrate=True)
        second = self._run(migrate=True)
        assert first.digest() == second.digest()
        assert first.migrated == second.migrated > 0
