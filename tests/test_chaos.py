"""Chaos layer: schedules, the request journal, recovery, degradation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import (
    ChaosEvent,
    ChaosSchedule,
    RecoveryPolicy,
    Replica,
    ReplicaStore,
    RequestJournal,
    WorkerChaos,
)
from repro.fleet.driver import FleetConfig, build_worker
from repro.fleet.frontend import FleetFrontend
from repro.fleet.wire import TaggedMessage, WireFormatError
from repro.resil.migrate import blob_watermark, pack_worker
from repro.resil.transient import RetryPolicy
from repro.serve import ServeRequest, ServeSim, ServiceCost
from repro.taint.bitmap import pack_flags


class StubModel:
    """A service model with scripted budgets — no Machines involved."""

    def __init__(self, cycles=100.0, boot=50.0, overrides=None,
                 migration_cycles=None):
        self.cycles = cycles
        self.boot_cycles = boot
        self.overrides = overrides or {}
        self.migration_cycles = migration_cycles

    def cost(self, payload, tags=None):
        return self.overrides.get(
            bytes(payload), ServiceCost(cycles=self.cycles, outcome="served",
                                        response_sha="aa" * 32))


def steady_requests(n, spacing=50.0, payload=b"GET /x"):
    return [ServeRequest(index=i, session=i, arrival=i * spacing,
                         payload=payload) for i in range(n)]


def chaos_sim(chaos=None, *, workers=2, shed_limit=None,
              recovery=None, **kw):
    return ServeSim(workers=workers, seed=3, routing="round_robin",
                    service_model=StubModel(migration_cycles=8.0),
                    chaos=chaos,
                    recovery=recovery or RecoveryPolicy(
                        heartbeat_interval=10.0, miss_threshold=3,
                        replicate_every=2, replication_cycles=4.0,
                        rehydrate_cycles=8.0),
                    shed_limit=shed_limit, **kw)


class TestChaosSchedule:
    def test_campaign_is_deterministic(self):
        a = ChaosSchedule.campaign(7, workers=3, duration=1e6,
                                   crashes=2, stalls=1, stall_cycles=500.0)
        b = ChaosSchedule.campaign(7, workers=3, duration=1e6,
                                   crashes=2, stalls=1, stall_cycles=500.0)
        assert a.events == b.events
        assert a.describe() == b.describe()

    def test_campaign_times_avoid_the_edges(self):
        sched = ChaosSchedule.campaign(1, workers=2, duration=1e6,
                                       crashes=4)
        for event in sched.events:
            assert 0.1 * 1e6 < event.time < 0.9 * 1e6

    def test_campaign_walks_workers_round_robin(self):
        sched = ChaosSchedule.campaign(5, workers=2, duration=1e6,
                                       crashes=3)
        assert sorted(e.worker for e in sched.crashes) == ["w0", "w0", "w1"]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(time=1.0, kind="meteor", worker="w0")
        with pytest.raises(ValueError):
            ChaosEvent(time=1.0, kind="stall", worker="w0", duration=0.0)
        with pytest.raises(ValueError):
            ChaosSchedule(corrupt_rate=0.7, drop_rate=0.6)

    def test_transmit_is_stateless_per_attempt(self):
        sched = ChaosSchedule(seed=11, corrupt_rate=0.4, drop_rate=0.2)
        frame = TaggedMessage(payload=b"response").to_bytes()
        for request in range(20):
            for attempt in range(4):
                first = sched.transmit(frame, request, attempt)
                again = sched.transmit(frame, request, attempt)
                assert first == again

    def test_corruption_is_crc_detectable(self):
        sched = ChaosSchedule(seed=2, corrupt_rate=1.0)
        frame = TaggedMessage(payload=b"response").to_bytes()
        damaged = sched.transmit(frame, 0, 0)
        assert damaged is not None and damaged != frame
        with pytest.raises(WireFormatError):
            TaggedMessage.from_bytes(damaged)

    def test_drop_returns_none(self):
        sched = ChaosSchedule(seed=2, drop_rate=1.0)
        frame = TaggedMessage(payload=b"response").to_bytes()
        assert sched.transmit(frame, 0, 0) is None

    def test_wire_attempts_matches_transmit(self):
        sched = ChaosSchedule(seed=9, corrupt_rate=0.3, drop_rate=0.2)
        frame = TaggedMessage(payload=b"r").to_bytes()
        for request in range(30):
            failed = sched.wire_attempts(request, limit=6)
            for attempt in range(failed):
                assert sched.transmit(frame, request, attempt) != frame
            if failed <= 6:
                assert sched.transmit(frame, request, failed) == frame


class TestRequestJournal:
    def test_exactly_once_happy_path(self):
        journal = RequestJournal()
        for i in range(3):
            assert journal.admit(i, "w0")
        assert journal.open_count == 3
        for i in range(3):
            assert journal.complete(i, "served")
        assert journal.open_count == 0
        assert journal.exactly_once
        assert journal.duplicates == 0

    def test_duplicate_completion_is_suppressed(self):
        journal = RequestJournal()
        journal.admit(0, "w0")
        assert journal.complete(0, "served")
        assert not journal.complete(0, "served")
        assert journal.duplicates == 1
        assert journal.completed == 1
        assert journal.outcome(0) == "served"

    def test_completion_without_admission_raises(self):
        journal = RequestJournal()
        with pytest.raises(KeyError):
            journal.complete(42, "served")

    def test_reassign_skips_completed(self):
        journal = RequestJournal()
        for i in range(4):
            journal.admit(i, "w0")
        journal.complete(1, "served")
        moved = journal.reassign([0, 1, 2], "w1")
        assert moved == [0, 2]
        assert journal.open_for("w1") == [0, 2]
        assert journal.open_for("w0") == [3]
        assert journal.owner(0) == "w1"

    def test_open_ids_ordering(self):
        journal = RequestJournal()
        for i in (5, 1, 9):
            journal.admit(i, "w0")
        journal.complete(1, "served")
        assert journal.open_ids() == [5, 9]


class TestJournalProperties:
    """Arbitrary crash points and interleavings: exactly-once always."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        crash_points=st.lists(st.integers(min_value=0, max_value=23),
                              max_size=4),
        interleave=st.randoms(use_true_random=False),
        granularity=st.sampled_from([1, 8]),
    )
    def test_crash_replay_never_loses_or_duplicates(
            self, n, crash_points, interleave, granularity):
        journal = RequestJournal()
        payloads = {i: b"req-%d" % i for i in range(n)}
        tags = {i: pack_flags([i % 2 == 0] * len(payloads[i]))
                for i in range(n)}
        expected = {i: (payloads[i], tags[i], granularity)
                    for i in range(n)}
        for i in range(n):
            journal.admit(i, "w0")

        # Each crash point moves the still-open tail to a fresh worker;
        # dead incarnations still deliver their (duplicate) completions.
        deliveries = []
        incarnation = 0
        for point in sorted(set(p for p in crash_points if p < n)):
            for i in journal.open_for(f"w{incarnation}"):
                if i <= point:
                    deliveries.append((i, f"w{incarnation}"))
            survivors = [i for i in journal.open_ids() if i > point]
            incarnation += 1
            journal.reassign(survivors, f"w{incarnation}")
        for i in journal.open_ids():
            deliveries.append((i, journal.owner(i)))
        # Zombies re-deliver everything they ever started.
        for point in crash_points:
            if point < n:
                deliveries.append((point, "zombie"))
        interleave.shuffle(deliveries)

        outcomes = {}
        for index, worker in deliveries:
            payload, packed, gran = expected[index]
            outcome = "served:%s:%s:%d" % (
                payload.decode(), packed.hex(), gran)
            if journal.complete(index, outcome):
                outcomes[index] = outcome

        assert journal.open_count == 0
        assert journal.completed == n
        assert journal.exactly_once
        assert len(outcomes) == n
        # The authoritative outcome is payload- and tag-faithful no
        # matter which worker won the race.
        for i in range(n):
            assert journal.outcome(i) == "served:%s:%s:%d" % (
                payloads[i].decode(), tags[i].hex(), granularity)
        assert journal.duplicates == len(deliveries) - n


class TestReplicaStore:
    def test_latest_wins_and_stale_refused(self):
        store = ReplicaStore()
        assert store.store(Replica(worker="w0", watermark=3, evidence=1,
                                   time=10.0))
        assert store.store(Replica(worker="w0", watermark=7, evidence=2,
                                   time=20.0))
        assert not store.store(Replica(worker="w0", watermark=7,
                                       evidence=2, time=30.0))
        assert store.latest("w0").watermark == 7
        assert store.stored == 2
        assert store.stale == 1

    def test_drop_and_missing(self):
        store = ReplicaStore()
        store.store(Replica(worker="w0", watermark=0, evidence=0, time=1.0))
        store.drop("w0")
        assert store.latest("w0") is None
        assert store.latest("w9") is None

    def test_bytes_shipped_counts_blobs(self):
        store = ReplicaStore()
        store.store(Replica(worker="w0", watermark=1, evidence=0,
                            time=1.0, blob=b"x" * 100))
        store.store(Replica(worker="w0", watermark=2, evidence=0,
                            time=2.0, blob=b"x" * 150))
        assert store.bytes_shipped == 250

    def test_recovery_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(miss_threshold=0)
        assert RecoveryPolicy(heartbeat_interval=100.0,
                              miss_threshold=3).detection_cycles == 300.0


class TestFrontendChaos:
    def test_shed_limit_rejects_explicitly(self):
        frontend = FleetFrontend(["w0"], shed_limit=2)
        assert frontend.submit(b"a") == "w0"
        assert frontend.submit(b"b") == "w0"
        assert frontend.submit(b"c") is None
        assert frontend.rejected == 1
        with pytest.raises(ValueError):
            FleetFrontend(["w0"], shed_limit=0)

    def test_receive_frame_clean_passthrough(self):
        frontend = FleetFrontend(["w0"])
        frame = TaggedMessage(payload=b"ok", request_id=4).to_bytes()
        message, backoff = frontend.receive_frame(lambda attempt: frame)
        assert message.payload == b"ok"
        assert backoff == 0.0
        assert frontend.retransmits == 0

    def test_receive_frame_retransmits_through_damage(self):
        frontend = FleetFrontend(["w0"])
        frame = TaggedMessage(payload=b"ok").to_bytes()
        damaged = bytearray(frame)
        damaged[-1] ^= 0x01
        attempts = [bytes(damaged), None, frame]
        message, backoff = frontend.receive_frame(
            lambda attempt: attempts[attempt],
            retry=RetryPolicy(limit=4, backoff_base=10.0,
                              backoff_factor=2.0))
        assert message.payload == b"ok"
        assert frontend.frame_rejects == 1
        assert frontend.frames_lost == 1
        assert frontend.retransmits == 2
        assert backoff == 10.0 + 20.0

    def test_receive_frame_exhausts_budget(self):
        frontend = FleetFrontend(["w0"])
        with pytest.raises(WireFormatError):
            frontend.receive_frame(lambda attempt: None,
                                   retry=RetryPolicy(limit=2))
        assert frontend.frames_lost == 3


class TestChaosSim:
    def test_crash_recovers_and_completes_everything(self):
        chaos = ChaosSchedule([
            ChaosEvent(time=120.0, kind="crash", worker="w0"),
        ], seed=1)
        result = chaos_sim(chaos).run(steady_requests(8))
        journal = result.journal.to_dict()
        assert journal["exactly_once"] and journal["open"] == 0
        assert journal["completed"] == 8
        assert result.dropped == 0
        assert len(result.recoveries) == 1
        recovery = result.recoveries[0]
        assert recovery["worker"] == "w0"
        assert recovery["cause"] == "crash"
        assert recovery["replacement"] == "w2"
        # detection (3 * 10) + boot (50) + rehydrate if a replica exists
        assert recovery["recovery_latency"] in (80.0, 88.0)
        assert any(e["action"] == "recover" for e in result.scale_events)

    def test_crash_outcome_matches_uncrashed_control(self):
        workload = steady_requests(10)
        chaos = ChaosSchedule([
            ChaosEvent(time=130.0, kind="crash", worker="w1"),
        ], seed=1)
        control = chaos_sim(None).run(workload)
        result = chaos_sim(chaos).run(workload)
        assert result.outcome_digest() == control.outcome_digest()
        assert result.digest() != control.digest()  # timing did change

    def test_chaos_run_is_bit_reproducible(self):
        chaos = ChaosSchedule([
            ChaosEvent(time=120.0, kind="crash", worker="w0"),
            ChaosEvent(time=260.0, kind="stall", worker="w1",
                       duration=500.0),
        ], seed=5, corrupt_rate=0.2, drop_rate=0.1)
        a = chaos_sim(chaos).run(steady_requests(12))
        b = chaos_sim(chaos).run(steady_requests(12))
        assert a.digest() == b.digest()

    def test_short_stall_is_not_declared_dead(self):
        chaos = ChaosSchedule([
            ChaosEvent(time=120.0, kind="stall", worker="w0",
                       duration=20.0),  # < detection_cycles (30)
        ], seed=1)
        result = chaos_sim(chaos).run(steady_requests(6))
        assert result.recoveries == []
        assert result.journal.to_dict()["exactly_once"]

    def test_zombie_duplicate_is_suppressed(self):
        # One worker, stalled mid-request far past the detector: it is
        # declared dead, replaced, then wakes and finishes anyway.
        chaos = ChaosSchedule([
            ChaosEvent(time=120.0, kind="stall", worker="w0",
                       duration=400.0),
        ], seed=1)
        result = chaos_sim(chaos, workers=1).run(steady_requests(6))
        journal = result.journal.to_dict()
        assert len(result.recoveries) == 1
        assert result.recoveries[0]["cause"] == "stall"
        assert journal["duplicates_suppressed"] >= 1
        assert journal["exactly_once"] and journal["open"] == 0

    def test_admission_shedding_drops_nothing_silently(self):
        burst = [ServeRequest(index=i, session=i, arrival=float(i),
                              payload=b"GET /x") for i in range(12)]
        result = chaos_sim(ChaosSchedule(seed=1), shed_limit=3).run(burst)
        journal = result.journal.to_dict()
        assert result.shed > 0
        assert result.dropped == 0
        assert result.frontend.rejected == result.shed
        assert journal["completed"] == journal["admitted"]
        rejected = [r for r in result.records if r.outcome == "rejected"]
        assert len(rejected) == result.shed

    def test_wire_chaos_retransmits_and_preserves_outcomes(self):
        workload = steady_requests(15)
        chaos = ChaosSchedule(seed=4, corrupt_rate=0.25, drop_rate=0.15)
        control = chaos_sim(None).run(workload)
        result = chaos_sim(chaos).run(workload)
        assert result.frontend.retransmits > 0
        assert (result.frontend.frame_rejects
                + result.frontend.frames_lost) > 0
        assert result.outcome_digest() == control.outcome_digest()
        assert result.journal.to_dict()["exactly_once"]

    def test_replication_banks_watermarks(self):
        chaos = ChaosSchedule([
            ChaosEvent(time=520.0, kind="crash", worker="w0"),
        ], seed=1)
        result = chaos_sim(chaos).run(steady_requests(12))
        assert result.replica_store is not None
        assert result.replica_store.stored > 0
        assert result.recoveries[0]["watermark"] >= 0

    def test_chaos_metrics_are_exposed(self):
        chaos = ChaosSchedule([
            ChaosEvent(time=120.0, kind="crash", worker="w0"),
        ], seed=1, corrupt_rate=0.2)
        result = chaos_sim(chaos).run(steady_requests(10))
        rendered = result.metrics().render()
        for name in ("serve.crashes", "serve.recoveries", "serve.replayed",
                     "serve.duplicates_suppressed", "serve.journal_open",
                     "fleet.retransmits", "fleet.frame_rejects"):
            assert name in rendered

    def test_chaos_free_run_reports_no_chaos_blocks(self):
        result = ServeSim(workers=2, seed=3, routing="round_robin",
                          service_model=StubModel()).run(steady_requests(5))
        report = result.to_report()
        assert "chaos" not in report
        assert "replication" not in report
        assert report["journal"]["exactly_once"]


class TestMigrateWatermark:
    def test_pack_worker_carries_watermark(self):
        machine = build_worker(FleetConfig(sizes=(1,)), "wm-test")
        blob = pack_worker(machine, watermark=17, reason="replicate")
        assert blob_watermark(blob) == 17

    def test_watermark_defaults_to_minus_one(self):
        machine = build_worker(FleetConfig(sizes=(1,)), "wm-default")
        blob = pack_worker(machine)
        assert blob_watermark(blob) == -1


class TestSupervisedFleet:
    @pytest.mark.slow
    def test_real_sigkill_recovery_is_exactly_once(self):
        # w0 is killed at its first pickup, before it has replicated:
        # the replacement starts from scratch and the requests still in
        # w0's inbox are replayed.
        self._sigkill_w0(crash_after=1)

    @pytest.mark.slow
    def test_real_sigkill_after_replication_is_exactly_once(self):
        # w0 replicates after its second request (index 2) and is
        # killed at its third: the replacement rehydrates that blob.
        self._sigkill_w0(crash_after=3)

    @staticmethod
    def _sigkill_w0(crash_after):
        from repro.fleet import SupervisedFleet

        chaos = ChaosSchedule(directives={
            "w0": WorkerChaos(crash_after=crash_after),
        }, seed=0)
        fleet = SupervisedFleet(FleetConfig(sizes=(1,)), workers=2, seed=0,
                                routing="round_robin", chaos=chaos)
        workload = [ServeRequest(index=i, session=i, arrival=0.0,
                                 payload=b"GET /static/p%d.html" % i)
                    for i in range(6)]
        report = fleet.run(workload)
        journal = report["journal"]
        assert journal["exactly_once"] and journal["open"] == 0
        assert report["completed"] == 6
        assert report["shed"] == 0
        crashes = [r for r in report["recoveries"] if r["cause"] == "crash"]
        assert len(crashes) == 1
        assert crashes[0]["worker"] == "w0"
        assert crashes[0]["replacement"].startswith("w")
        # Whether or not w0 replicated, the store holds nothing for it:
        # the replacement read and dropped the replica, and a replica
        # landing after the death was detected is refused.
        assert "w0" not in report["replication"]["held"]

    @pytest.mark.slow
    def test_killed_writer_does_not_block_other_answers(self):
        # A worker SIGKILLed while its answer sits half-written in an
        # unread, full channel must not hold up another worker's answers.
        # SIGALRM bounds the run: a parent stuck reading a torn frame
        # never returns to its own deadline check.
        import os
        import signal
        import time

        from repro.apps.webserver import make_request
        from repro.fleet.supervised import POLL_SECONDS, SupervisedFleet, _Run

        def hung(signum, frame):
            raise TimeoutError("parent blocked reading worker answers")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        run = _Run(SupervisedFleet(FleetConfig(sizes=(4, 64)), workers=2,
                                   routing="round_robin"))
        try:
            run.wait_ready()
            # Three 64 KB responses: far more than a pipe holds unread.
            run.send(0, "w0", [(make_request(64), None)] * 3)
            time.sleep(4.0)
            victim = run.workers["w0"]["proc"]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            assert not victim.is_alive()
            run.send(1, "w1", [(make_request(4), None)])
            deadline = time.perf_counter() + 20.0
            while (1 not in run.completions
                   and time.perf_counter() < deadline):
                run.poll(POLL_SECONDS)
            assert 1 in run.completions
            assert run.completions[1]["worker"] == "w1"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for state in run.workers.values():
                state["proc"].kill()
                state["proc"].join(10)
