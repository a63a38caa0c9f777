"""Serving subsystem: load generation, the simulated loop, autoscaling."""

import pytest

from repro.apps.webserver import make_request, traversal_request
from repro.compiler.instrument import BYTE_LEVEL, ShiftOptions
from repro.fleet.driver import FleetConfig
from repro.fleet.frontend import FleetFrontend
from repro.fleet.supervised import SupervisedFleet
from repro.serve import (
    ATTACK_KINDS,
    Autoscaler,
    AutoscalerConfig,
    LoadConfig,
    LoadPhase,
    ServeRequest,
    ServeSim,
    ServiceCost,
    ServiceModel,
    SimClock,
    describe,
    generate,
    offered_duration,
    percentile,
)


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
            bytes(payload), ServiceCost(cycles=self.cycles, outcome="served"))


def steady(offered=20.0, duration=1_000_000.0, **kw):
    return LoadConfig(seed=7, phases=[LoadPhase(duration, offered)], **kw)


#: Pinned serving runs: the counters each case exists to exercise, and
#: the digests of its records, outcomes and depth/scale series.
PINNED_RUNS = {
    "migrate-crash-stall": {
        "counts": {"migrate": 6, "stall_recoveries": 3, "recoveries": 6},
        "digest": ("40f0cb04e744c39963708c04b18333f6"
                   "c11317f55ea17b1adfb884cce556a840"),
        "outcome_digest": ("9a33e62cb61ceb54f9147b0ea68128cc"
                           "4a2db3d6436442a8cc7e6619157a7177"),
        "series": ("323931f24540cec8ccec25b06018134a"
                   "98ebf25f6c40288e7b0f6ddd45d5dc9d"),
    },
    "fatal-reroute-wire": {
        "counts": {"eject": 8, "rerouted": 15, "dropped": 1,
                   "acks_lost": 3, "stale_completions": 1},
        "digest": ("d7bca9b1442e2e6cc139ffc2fc16a1a6"
                   "7b5a94380023eaea46e904fb8de9de5c"),
        "outcome_digest": ("fe01b5e68eb79cf170c3e2d1cdc22508"
                           "a827c17d7fe9e07362de0e1b00e4d908"),
        "series": ("86659ca7723243e006a4b1572c83db5e"
                   "9595ffaa5e48c3231580c4a7f6c82ab6"),
    },
    "shed-wire": {
        "counts": {"shed": 69, "acks_lost": 3, "stale_completions": 2,
                   "migrated": 1},
        "digest": ("e032f3ef7108fdb148d5dff7894a434a"
                   "0a89d7c3695cf2de53c7e2939cd5da5a"),
        "outcome_digest": ("1ca3cd6f295b70fb2edc8f9adc4f477c"
                           "642da1a575ddea314e7456ba7c72a0ed"),
        "series": ("bd2a6b196e2ed3e5fc96b5ab6cf27468"
                   "9b33a77b2fefd19259d036e111f1350b"),
    },
    "drain-shed": {
        "counts": {"migrate": 1, "shed": 381, "migrated": 10},
        "digest": ("797773342ea6033df8f5cc8640d4bdca"
                   "101afbb9b932da077acf68b4b31543dd"),
        "outcome_digest": ("9991fbcd3bfab923f79cdffa235e4bb5"
                           "6231249b90a79f6cc5ecfd2071cee2a0"),
        "series": ("f934359a962973e716472bc0a6c1f89d"
                   "cc154d237095f3275f50a7358c161673"),
    },
}


def _pinned_run(case):
    """Serve one :data:`PINNED_RUNS` case on an autoscaled stub fleet."""
    from repro.chaos import ChaosSchedule, RecoveryPolicy

    if case == "drain-shed":
        # Arrivals every ~50 cycles against 20k-cycle service, drained
        # at every tick: the shipped requests meet the shed limit and
        # land through the admission bypass.
        workload = generate(LoadConfig(seed=11, phases=[
            LoadPhase(20_000.0, 20_000.0)]))
        return ServeSim(
            workers=2, seed=3, shed_limit=30,
            service_model=StubModel(cycles=20_000.0,
                                    migration_cycles=5_000.0),
            autoscaler=AutoscalerConfig(min_workers=1, max_workers=2,
                                        high_water=1000.0, low_water=999.0,
                                        interval=2_000.0, cooldown_ticks=0),
            migrate_on_drain=True).run(workload)
    workload = generate(LoadConfig(seed=13, phases=[
        LoadPhase(1_500_000.0, 160.0), LoadPhase(1_000_000.0, 12.0),
        LoadPhase(1_000_000.0, 160.0), LoadPhase(1_000_000.0, 4.0),
    ], attack_fraction=0.1))
    overrides = {r.payload: ServiceCost(cycles=20_000.0,
                                        outcome="quarantined", alerts=1,
                                        policy_ids=("H2",))
                 for r in workload if r.kind != "clean"}
    options = {}
    if case == "migrate-crash-stall":
        chaos = ChaosSchedule.campaign(4, workers=6, duration=4_500_000.0,
                                       crashes=3, stalls=3,
                                       stall_cycles=50_000.0)
    else:
        chaos = ChaosSchedule.campaign(6, workers=6, duration=4_500_000.0,
                                       crashes=3, stalls=3,
                                       stall_cycles=50_000.0,
                                       corrupt_rate=0.2, drop_rate=0.1)
        if case == "fatal-reroute-wire":
            options = {"routing": "round_robin", "queue_capacity": 6}
            overrides.update({
                r.payload: ServiceCost(cycles=20_000.0, outcome="fatal",
                                       error="boom")
                for r in workload if r.kind == "overflow"})
        else:
            options = {"queue_capacity": 6, "shed_limit": 12}
    return ServeSim(
        workers=2, seed=4,
        service_model=StubModel(cycles=25_000.0, boot=40_000.0,
                                overrides=overrides,
                                migration_cycles=15_000.0),
        autoscaler=AutoscalerConfig(min_workers=2, max_workers=6,
                                    interval=20_000.0, cooldown_ticks=1),
        chaos=chaos, recovery=RecoveryPolicy(), migrate_on_drain=True,
        **options).run(workload)


class TestSimClock:
    def test_pop_advances_in_time_order(self):
        clock = SimClock()
        clock.schedule(30.0, "b")
        clock.schedule(10.0, "a")
        clock.schedule(20.0, "c")
        assert [clock.pop()[0] for _ in range(3)] == ["a", "c", "b"]
        assert clock.now == 30.0

    def test_ties_break_by_insertion_order(self):
        clock = SimClock()
        clock.schedule(5.0, "first")
        clock.schedule(5.0, "second")
        assert clock.pop()[0] == "first"
        assert clock.pop()[0] == "second"

    def test_cannot_schedule_into_the_past(self):
        clock = SimClock()
        clock.schedule(10.0, "x")
        clock.pop()
        with pytest.raises(ValueError):
            clock.schedule(5.0, "y")

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 99.0) == 99
        assert percentile(values, 100.0) == 100
        assert percentile([], 50.0) == 0.0
        assert percentile([42.0], 99.0) == 42.0


class TestLoadgen:
    def test_same_config_is_bit_identical(self):
        assert generate(steady()) == generate(steady())

    def test_seed_changes_the_schedule(self):
        a = generate(steady())
        b = generate(LoadConfig(seed=8, phases=[LoadPhase(1e6, 20.0)]))
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_arrivals_sorted_and_indexed(self):
        workload = generate(steady())
        arrivals = [r.arrival for r in workload]
        assert arrivals == sorted(arrivals)
        assert [r.index for r in workload] == list(range(len(workload)))

    def test_mean_offered_load_is_close(self):
        # Heavy-tailed gaps make any single seed noisy; the *mean*
        # rate over seeds must track the requested offered load.
        rates = []
        for seed in range(8):
            config = LoadConfig(
                seed=seed, phases=[LoadPhase(10_000_000.0, 20.0)])
            workload = generate(config)
            rates.append(len(workload) / (offered_duration(config) / 1e6))
        assert sum(rates) / len(rates) == pytest.approx(20.0, rel=0.2)

    def test_sessions_share_affinity_and_size(self):
        workload = generate(steady())
        by_session = {}
        for r in workload:
            by_session.setdefault(r.session, []).append(r)
        multi = [rs for rs in by_session.values() if len(rs) > 1]
        assert multi, "expected at least one keep-alive session"
        for rs in multi:
            assert len({r.affinity for r in rs}) == 1
            clean = [r.payload for r in rs if r.kind == "clean"]
            assert len(set(clean)) <= 1  # one resource per session

    def test_attack_sessions_end_with_the_attack(self):
        workload = generate(steady(attack_fraction=0.5,
                                   duration=2_000_000.0))
        attacks = [r for r in workload if r.kind != "clean"]
        assert attacks, "attack fraction 0.5 produced no attacks"
        assert {r.kind for r in attacks} <= set(ATTACK_KINDS)
        for attack in attacks:
            session = [r for r in workload if r.session == attack.session]
            assert max(session, key=lambda r: r.arrival) is attack

    def test_phases_shift_the_arrival_rate(self):
        config = LoadConfig(seed=3, phases=[
            LoadPhase(3_000_000.0, 30.0), LoadPhase(3_000_000.0, 5.0)])
        workload = generate(config)
        burst = sum(1 for r in workload if r.arrival < 3e6)
        taper = len(workload) - burst
        assert burst > 2 * taper

    def test_describe_summarises(self):
        workload = generate(steady())
        info = describe(workload)
        assert info["requests"] == len(workload)
        assert info["sessions"] == len({r.session for r in workload})
        assert info["attacks"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(phases=[])
        with pytest.raises(ValueError):
            LoadConfig(phases=[LoadPhase(-1.0, 10.0)])
        with pytest.raises(ValueError):
            LoadConfig(attack_fraction=1.5)
        with pytest.raises(ValueError):
            LoadConfig(sizes_kb=(4,), size_weights=(0.5, 0.5))


class TestAutoscaler:
    def test_scales_up_above_high_water(self):
        auto = Autoscaler(AutoscalerConfig(high_water=2.0, alpha=1.0))
        assert auto.observe(1.0, queued=10, routable=2) == "scale_up"

    def test_cooldown_blocks_consecutive_actions(self):
        auto = Autoscaler(AutoscalerConfig(high_water=2.0, alpha=1.0,
                                           cooldown_ticks=2))
        assert auto.observe(1.0, 10, 2) == "scale_up"
        assert auto.observe(2.0, 10, 3) is None
        assert auto.observe(3.0, 10, 3) is None
        assert auto.observe(4.0, 10, 3) == "scale_up"

    def test_drains_below_low_water_but_not_below_min(self):
        auto = Autoscaler(AutoscalerConfig(min_workers=2, low_water=0.5,
                                           alpha=1.0, cooldown_ticks=0))
        assert auto.observe(1.0, 0, 4) == "drain"
        assert auto.observe(2.0, 0, 2) is None  # at min_workers

    def test_never_exceeds_max_workers(self):
        auto = Autoscaler(AutoscalerConfig(max_workers=3, alpha=1.0,
                                           cooldown_ticks=0))
        assert auto.observe(1.0, 99, 3) is None

    def test_ewma_smooths_bursts(self):
        auto = Autoscaler(AutoscalerConfig(high_water=2.0, alpha=0.25))
        # One burst sample does not clear the smoothed threshold.
        assert auto.observe(1.0, 12, 2) is None
        assert auto.smoothed == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(high_water=1.0, low_water=1.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(interval=0.0)


class TestServeSim:
    def test_serves_everything_with_ordered_stamps(self):
        workload = generate(steady())
        sim = ServeSim(workers=2, seed=0, service_model=StubModel())
        result = sim.run(workload)
        assert result.served == len(workload)
        assert result.dropped == 0
        for record in result.records:
            assert record.enqueue <= record.dispatch <= record.complete
            assert record.latency == pytest.approx(
                record.queue_wait + record.service)

    def test_single_worker_queues_simultaneous_arrivals(self):
        from repro.serve import ServeRequest

        workload = [
            ServeRequest(index=0, session=0, arrival=10.0, payload=b"a"),
            ServeRequest(index=1, session=1, arrival=10.0, payload=b"b"),
        ]
        sim = ServeSim(workers=1, seed=0,
                       service_model=StubModel(cycles=100.0))
        result = sim.run(workload)
        first, second = result.records
        assert first.queue_wait == 0.0
        assert second.queue_wait == pytest.approx(100.0)
        assert second.complete == pytest.approx(210.0)

    def test_session_affinity_is_sticky(self):
        workload = generate(steady())
        result = ServeSim(workers=4, seed=1,
                          service_model=StubModel()).run(workload)
        by_session = {}
        for record in result.records:
            by_session.setdefault(record.session, set()).add(record.worker)
        assert all(len(ws) == 1 for ws in by_session.values())

    def test_digest_is_reproducible(self):
        workload = generate(steady())
        auto = AutoscalerConfig(min_workers=2, interval=10_000.0)
        run = lambda: ServeSim(workers=2, seed=0,
                               service_model=StubModel(),
                               autoscaler=auto).run(workload)
        assert run().digest() == run().digest()

    def test_bounded_queue_drops_overflow(self):
        workload = generate(steady(offered=80.0))
        sim = ServeSim(workers=1, seed=0, queue_capacity=2,
                       service_model=StubModel(cycles=500_000.0))
        result = sim.run(workload)
        assert result.dropped > 0
        assert result.dropped == sum(
            1 for r in result.records if r.outcome == "dropped")
        assert result.frontend.dropped == result.dropped

    def test_autoscaler_spawns_after_boot_and_retires_after_drain(self):
        config = LoadConfig(seed=2, phases=[
            LoadPhase(500_000.0, 60.0),     # burst far past 1 worker
            LoadPhase(2_000_000.0, 1.0),    # taper to nearly idle
        ])
        auto = AutoscalerConfig(min_workers=1, max_workers=4,
                                interval=20_000.0, cooldown_ticks=1)
        sim = ServeSim(workers=1, seed=0,
                       service_model=StubModel(cycles=120_000.0,
                                               boot=40_000.0),
                       autoscaler=auto)
        result = sim.run(generate(config))
        ups = [e for e in result.scale_events if e["action"] == "scale_up"]
        retires = [e for e in result.scale_events
                   if e["action"] == "retire"]
        assert ups and retires
        assert result.peak_workers > 1
        # A spawned worker's first dispatch waits out the boot budget.
        for event in ups:
            worker = result.workers[event["worker"]]
            first = [r.dispatch for r in result.records
                     if r.worker == event["worker"]]
            if first:
                assert min(first) >= worker.available_at
        # Retired workers drained: no dispatch after retirement.
        for event in retires:
            retired_at = result.workers[event["worker"]].retired_at
            assert retired_at is not None
            assert all(r.dispatch <= retired_at for r in result.records
                       if r.worker == event["worker"])

    def test_fatal_request_ejects_and_reroutes_identically(self):
        from repro.serve import ServeRequest

        poison = b"POISON"
        overrides = {poison: ServiceCost(cycles=50.0, outcome="fatal",
                                         error="boom")}
        model = StubModel(cycles=100.0, overrides=overrides)
        workload = [
            ServeRequest(index=0, session=1, arrival=0.0, payload=poison,
                         kind="overflow"),
            ServeRequest(index=1, session=1, arrival=1.0, payload=b"x"),
            ServeRequest(index=2, session=2, arrival=2.0, payload=b"y"),
        ]
        result = ServeSim(workers=2, seed=0,
                          service_model=model).run(workload)
        ejected = [w for w in result.workers.values() if w.ejected]
        assert len(ejected) == 1
        orphan = result.records[1]  # queued behind poison, same session
        assert orphan.rerouted
        assert orphan.outcome == "served"
        assert orphan.worker != ejected[0].worker_id
        assert result.rerouted >= 1
        # Re-routing does not change the serving outcome digest.
        rerun = ServeSim(workers=2, seed=0,
                         service_model=model).run(workload)
        assert rerun.digest() == result.digest()

    def test_metrics_registry_has_serve_and_frontend_counters(self):
        workload = generate(steady())
        result = ServeSim(workers=2, seed=0,
                          service_model=StubModel()).run(workload)
        flat = result.metrics()
        assert flat["serve.requests"] == len(workload)
        assert flat["serve.served"] == result.served
        assert flat["serve.latency.p99"] > 0
        assert flat["frontend.dropped"] == 0
        assert flat["frontend.workers_routable"] == 2

    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_autoscaled_chaos_run_is_pinned(self, case):
        # Scale-ups, drains via migration, crash and stall recoveries,
        # zombie completions: every path that changes the routable set
        # or a worker's busy flag.  The constants were recorded with
        # routing that scanned every worker ever joined, so any drift in
        # candidate order or in the in_flight samples changes them.  The
        # later cases add fatal-ejection re-routing, bounded-queue drops,
        # undeliverable acks, admission shedding and migrated requests
        # landing through the admission bypass.
        import hashlib
        import json

        expected = PINNED_RUNS[case]
        result = _pinned_run(case)
        actions = [e["action"] for e in result.scale_events]
        counts = {
            "migrate": actions.count("migrate"),
            "eject": actions.count("eject"),
            "recoveries": len(result.recoveries),
            "stall_recoveries": [r["cause"] for r in result.recoveries
                                 ].count("stall"),
            "rerouted": result.rerouted, "dropped": result.dropped,
            "shed": result.shed, "acks_lost": result.acks_lost,
            "stale_completions": result.stale_completions,
            "migrated": result.migrated,
        }
        assert {k: counts[k] for k in expected["counts"]} == \
            expected["counts"]
        assert result.digest() == expected["digest"]
        assert result.outcome_digest() == expected["outcome_digest"]
        series = json.dumps([result.depth_series, result.scale_events],
                            sort_keys=True).encode()
        assert hashlib.sha256(series).hexdigest() == expected["series"]
        # Migrated requests landing through the bypass were never
        # refused, so every rejection is a shed request.
        assert result.frontend.rejected == result.shed
        # The store keeps replicas of live workers only.
        gone = {wid for wid, worker in result.workers.items()
                if worker.ejected or worker.retired_at is not None}
        store = result.replica_store
        held = set(store.workers) if store is not None else set()
        assert not held & gone

    def test_report_is_json_ready(self):
        import json

        workload = generate(steady(attack_fraction=0.3))
        overrides = {}
        for r in workload:
            if r.kind != "clean":
                overrides[r.payload] = ServiceCost(
                    cycles=60.0, outcome="quarantined", alerts=1)
        result = ServeSim(workers=2, seed=0,
                          service_model=StubModel(overrides=overrides)
                          ).run(workload)
        flat = result.metrics()
        assert json.loads(json.dumps(flat)) == flat
        detection = result.attack_detection()
        assert detection["attacks"] > 0
        assert detection["detection_rate"] == 1.0
        assert result.false_alerts == 0
        assert flat["serve.quarantined"] == detection["detected"]


#: One real ServiceModel cost per outcome it can produce: (config,
#: payload, cycles, outcome, policy ids, response sha).  Recorded
#: constants; a change to how a worker run is measured moves them.
PINNED_COSTS = {
    "served": (FleetConfig(), make_request(4), 160181.0, "served", (),
               "4febe7ca2d0083c182fcbe518761b661"
               "e2c3307ef597751bbb5fd0b6be8dd931"),
    "quarantined": (FleetConfig(variant="resil", options=BYTE_LEVEL,
                                recover_watchdog=2_000_000),
                    traversal_request(), 2091.0, "quarantined", ("H2",),
                    ""),
    "fatal": (FleetConfig(variant="resil", options=BYTE_LEVEL,
                          engine_mode="raise"),
              traversal_request(), 18182.0, "fatal", ("H2",), ""),
}


class TestServiceModelReal:
    @pytest.mark.parametrize("case", sorted(PINNED_COSTS))
    def test_cost_is_pinned(self, case):
        config, payload, cycles, outcome, policy_ids, sha = \
            PINNED_COSTS[case]
        cost = ServiceModel(config).cost(payload)
        assert (cost.cycles, cost.outcome, cost.policy_ids,
                cost.response_sha) == (cycles, outcome, policy_ids, sha)
        assert cost.alerts == len(policy_ids)

    def test_budgets_are_measured_and_cached(self):
        model = ServiceModel(FleetConfig())
        assert model.boot_cycles > 0
        cost = model.cost(make_request(4))
        assert cost.outcome == "served"
        assert cost.cycles > 0
        assert cost.response_sha
        model.cost(make_request(4))
        assert model.measured == 1  # cached, not re-measured

    def test_attack_budget_and_detection_under_strict_config(self):
        model = ServiceModel(FleetConfig(
            variant="resil", options=ShiftOptions(granularity=1),
            recover_watchdog=2_000_000))
        attack = model.cost(traversal_request())
        assert attack.outcome == "quarantined"
        assert "H2" in attack.policy_ids
        # Rollback restores counters; the budget must still be real.
        assert attack.cycles > 1.0

    def test_end_to_end_attack_mix_detects_everything(self):
        model = ServiceModel(FleetConfig(
            variant="resil", options=ShiftOptions(granularity=1),
            sizes=(4,), recover_watchdog=2_000_000))
        workload = generate(LoadConfig(
            seed=11, phases=[LoadPhase(600_000.0, 25.0)],
            sizes_kb=(4,), size_weights=(1.0,), attack_fraction=0.5))
        result = ServeSim(workers=2, seed=0,
                          service_model=model).run(workload)
        detection = result.attack_detection()
        assert detection["attacks"] >= 1
        assert detection["detection_rate"] == 1.0
        assert result.false_alerts == 0


class TestWallclock:
    """Paced serving on real processes (``SupervisedFleet.run``)."""

    def test_small_run_completes_and_detects(self):
        from repro.apps.webserver import overflow_request

        config = FleetConfig(variant="resil",
                             options=ShiftOptions(granularity=1),
                             sizes=(4,), recover_watchdog=2_000_000)
        workload = [
            ServeRequest(index=0, session=0, arrival=0.0,
                         payload=make_request(4)),
            ServeRequest(index=1, session=1, arrival=1_000.0,
                         payload=overflow_request(), kind="overflow"),
            ServeRequest(index=2, session=2, arrival=2_000.0,
                         payload=make_request(4)),
        ]
        report = SupervisedFleet(config, workers=2, seed=0).run(
            workload, time_scale=1e9)
        assert report["completed"] == 3
        assert report["served"] == 2
        assert report["attacks"] == 1
        assert report["detected"] == 1
        assert report["false_alerts"] == 0
        assert report["wall_seconds"] > 0

    def test_paced_runs_route_by_session_affinity(self):
        # One payload, many sessions: hashing the payload would put
        # every request on one worker; the affinity key spreads them
        # exactly as ServeSim's frontend does.
        workload = [ServeRequest(index=i, session=i // 2, arrival=0.0,
                                 payload=make_request(4))
                    for i in range(10)]
        seed = 3
        report = SupervisedFleet(FleetConfig(sizes=(4,)), workers=2,
                                 seed=seed).run(workload)
        frontend = FleetFrontend(["w0", "w1"], policy="hash", seed=seed)
        expected = {r.index: frontend.submit(r.payload, key=r.affinity)
                    for r in workload}
        assert len(set(expected.values())) == 2
        assert report["completed"] == 10
        assert {row["index"]: row["worker"]
                for row in report["records"]} == expected

    def test_latency_runs_from_the_scheduled_arrival(self):
        # Two requests due at once on one worker: the second waits for
        # the first, and that queueing is part of its latency.
        workload = [ServeRequest(index=i, session=i, arrival=0.0,
                                 payload=make_request(4)) for i in range(2)]
        report = SupervisedFleet(FleetConfig(sizes=(4,)), workers=1,
                                 seed=0).run(workload)
        first, second = sorted(report["records"],
                               key=lambda row: row["complete"])
        assert first["enqueue"] == second["enqueue"] == 0.0
        service = second["complete"] - second["dispatch"]
        assert (second["complete"] - second["enqueue"]
                >= first["complete"] - first["enqueue"] + service)
