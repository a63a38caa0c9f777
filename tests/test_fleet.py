"""Fleet subsystem: routing, backpressure, drivers, and the two tiers."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.webserver import (make_request, overflow_request,
                                  traversal_request)
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet import (
    FleetConfig,
    FleetDriver,
    FleetFrontend,
    TaggedMessage,
    incident_report,
    render_incidents,
    two_tier_experiment,
)
from repro.fleet.driver import build_worker
from repro.fleet.frontend import HASH_REPLICAS
from repro.runtime.devices import SimNetwork


class TestFrontendRouting:
    def test_round_robin_rotates(self):
        fe = FleetFrontend(["a", "b", "c"])
        placed = [fe.submit(bytes([i])) for i in range(6)]
        assert placed == ["a", "b", "c", "a", "b", "c"]

    def test_hash_is_sticky_per_payload(self):
        fe = FleetFrontend(["a", "b", "c", "d"], policy="hash", seed=3)
        targets = {fe.submit(b"GET /same HTTP/1.0\r\n\r\n")
                   for _ in range(5)}
        assert len(targets) == 1

    def test_hash_eject_only_remaps_victims(self):
        requests = [f"GET /{i} HTTP/1.0\r\n\r\n".encode() for i in range(40)]
        fe = FleetFrontend(["a", "b", "c"], policy="hash", seed=1)
        before = {bytes(r): fe.submit(r) for r in requests}
        victim = before[bytes(requests[0])]
        fe2 = FleetFrontend(["a", "b", "c"], policy="hash", seed=1)
        fe2.eject(victim)
        for r in requests:
            after = fe2.submit(r)
            if before[bytes(r)] != victim:
                assert after == before[bytes(r)]
            else:
                assert after != victim

    def test_seed_changes_hash_placement(self):
        requests = [f"GET /{i} HTTP/1.0\r\n\r\n".encode() for i in range(30)]
        place = lambda seed: [
            FleetFrontend(["a", "b", "c"], policy="hash",
                          seed=seed).submit(r) for r in requests]
        assert place(1) == place(1)
        assert place(1) != place(2)

    def test_bounded_queues_spill_then_drop(self):
        fe = FleetFrontend(["a", "b"], queue_capacity=1)
        assert fe.submit(b"r1") == "a"
        assert fe.submit(b"r2") == "b"  # round-robin lands it on b anyway
        assert fe.submit(b"r3") is None  # both full
        assert fe.dropped == 1
        fe2 = FleetFrontend(["a", "b"], queue_capacity=2)
        fe2.slots["a"].queue.append(b"x")  # a still has room
        assert fe2.submit(b"r") == "a"
        assert fe2.spilled == 0  # a was first choice

    def test_spill_counts_non_first_choice(self):
        fe = FleetFrontend(["a", "b"], queue_capacity=1)
        fe.slots["a"].queue.append(b"x")
        assert fe.submit(b"r") == "b"  # round-robin wanted a
        assert fe.spilled == 1

    def test_eject_returns_orphans(self):
        fe = FleetFrontend(["a", "b"])
        fe.submit(b"r1")
        fe.submit(b"r2")
        orphans = fe.eject("a", "it died")
        assert orphans == [b"r1"]
        assert fe.healthy_count == 1
        assert all(fe.submit(b"x") == "b" for _ in range(3))

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            FleetFrontend(["a"], policy="random")
        with pytest.raises(ValueError):
            FleetFrontend([])
        with pytest.raises(ValueError):
            FleetFrontend(["a", "a"])


class TestFrontendLifecycle:
    def test_depths_snapshots_every_slot(self):
        fe = FleetFrontend(["a", "b"])
        fe.submit(b"r1")
        fe.eject("b", "sick")
        depths = fe.depths()
        assert depths["a"] == {"queued": 1, "queued_bytes": 2,
                               "healthy": True, "draining": False,
                               "routable": True}
        assert depths["b"]["healthy"] is False
        assert depths["b"]["routable"] is False
        assert fe.total_queued == 1
        assert fe.routable_count == 1

    def test_affinity_key_overrides_payload_hash(self):
        fe = FleetFrontend(["a", "b", "c", "d"], policy="hash", seed=2)
        targets = {fe.submit(bytes([i]), key=b"session-9")
                   for i in range(8)}
        assert len(targets) == 1  # distinct payloads, one key, one home

    def test_add_worker_only_steals_keys_it_now_owns(self):
        keys = [f"session-{i}".encode() for i in range(60)]
        fe = FleetFrontend(["a", "b"], policy="hash", seed=4)
        before = {k: fe.submit(b"r", key=k) for k in keys}
        fe2 = FleetFrontend(["a", "b"], policy="hash", seed=4)
        fe2.add_worker("c")
        moved = 0
        for k in keys:
            after = fe2.submit(b"r", key=k)
            if after != before[k]:
                assert after == "c"  # consistent hashing: moves only to c
                moved += 1
        assert 0 < moved < len(keys)

    def test_drain_makes_worker_unroutable_then_retire(self):
        fe = FleetFrontend(["a", "b"], policy="hash", seed=1)
        fe.slots["a"].queue.append(b"old")
        fe.drain("a")
        assert not fe.slots["a"].routable
        assert fe.slots["a"].healthy  # draining is not unhealthy
        for i in range(10):
            assert fe.submit(f"r{i}".encode()) == "b"
        with pytest.raises(ValueError):
            fe.retire("a")  # queue not yet empty
        fe.slots["a"].queue.clear()
        fe.retire("a")
        assert fe.slots["a"].ejected_reason == "retired"
        assert fe.routable_count == 1

    def test_frontend_metrics_expose_drops_and_depths(self):
        from repro.fleet import frontend_metrics

        fe = FleetFrontend(["a", "b"], queue_capacity=1)
        fe.submit(b"r1")
        fe.submit(b"r2")
        fe.submit(b"r3")  # both full -> dropped
        flat = frontend_metrics(fe)
        assert flat["frontend.dropped"] == 1
        assert flat["frontend.queued"] == 2
        assert flat["frontend.depth.a"] == 1
        assert flat["frontend.workers_routable"] == 2


class OracleFrontend:
    """Reference router: filter every worker ever, walk the full ring.

    Routing as the frontend did before it kept a live-only view: each
    submission rebuilds the routable set from every worker ever joined
    and walks all replicas of the ring, skipping the unroutable ones.
    """

    def __init__(self, worker_ids, policy, seed, capacity, shed_limit):
        self.policy = policy
        self.seed = seed
        self.capacity = capacity
        self.shed_limit = shed_limit
        self.order = []
        self.slots = {}
        self.ring = []
        self.rr_next = 0
        self.dropped = self.spilled = self.rejected = 0
        for wid in worker_ids:
            self.add_worker(wid)

    def _hash(self, *parts):
        blob = b"\x00".join((str(self.seed).encode(),) + parts)
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

    def add_worker(self, wid):
        self.order.append(wid)
        self.slots[wid] = {"queue": [], "healthy": True, "draining": False}
        for replica in range(HASH_REPLICAS):
            self.ring.append(
                (self._hash(wid.encode(), str(replica).encode()), wid))
        self.ring.sort()

    def _routable(self, wid):
        return (self.slots[wid]["healthy"]
                and not self.slots[wid]["draining"])

    def _candidates(self, payload, key):
        routable = [w for w in self.order if self._routable(w)]
        if not routable:
            return []
        if self.policy == "round_robin":
            start = self.rr_next % len(routable)
            self.rr_next += 1
            return routable[start:] + routable[:start]
        point = self._hash(key if key is not None else payload)
        start = next((i for i, (pos, _) in enumerate(self.ring)
                      if pos >= point), 0)
        ordered = []
        for i in range(len(self.ring)):
            wid = self.ring[(start + i) % len(self.ring)][1]
            if wid not in ordered and self._routable(wid):
                ordered.append(wid)
        return ordered

    def submit(self, payload, key):
        if (self.shed_limit is not None
                and self.total_queued >= self.shed_limit):
            self.rejected += 1
            return None
        for rank, wid in enumerate(self._candidates(payload, key)):
            queue = self.slots[wid]["queue"]
            if self.capacity is None or len(queue) < self.capacity:
                queue.append(payload)
                self.spilled += rank > 0
                return wid
        self.dropped += 1
        return None

    def drain(self, wid):
        self.slots[wid]["draining"] = True

    def retire(self, wid):
        if self.slots[wid]["queue"]:
            raise ValueError(wid)
        self.slots[wid].update(healthy=False, draining=False)

    def eject(self, wid):
        self.slots[wid].update(healthy=False, draining=False)
        orphans, self.slots[wid]["queue"] = self.slots[wid]["queue"], []
        return orphans

    @property
    def total_queued(self):
        return sum(len(s["queue"]) for s in self.slots.values()
                   if s["healthy"])

    def counts(self):
        healthy = [w for w in self.order if self.slots[w]["healthy"]]
        routable = [w for w in self.order if self._routable(w)]
        return (len(healthy), len(routable), self.total_queued,
                self.dropped, self.spilled, self.rejected)


#: One step of a random frontend history: (operation, payload, affinity
#: key, worker index).  The index wraps around every worker ever
#: joined, so steps also hit drained and dead workers.
FRONTEND_STEPS = st.tuples(
    st.sampled_from(["submit"] * 6 + ["serve"] * 2
                    + ["add", "drain", "retire", "eject"]),
    st.binary(min_size=1, max_size=3),
    st.one_of(st.none(), st.sampled_from([b"s0", b"s1", b"s2", b"s3"])),
    st.integers(0, 63),
)


class TestRoutingView:
    """The live-worker routing view decides exactly as the full scan."""

    @pytest.mark.parametrize("policy", ["round_robin", "hash"])
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 5),
           capacity=st.one_of(st.none(), st.integers(1, 3)),
           shed_limit=st.one_of(st.none(), st.integers(1, 8)),
           initial=st.integers(1, 4),
           steps=st.lists(FRONTEND_STEPS, min_size=10, max_size=120))
    def test_matches_full_scan_oracle(self, policy, seed, capacity,
                                      shed_limit, initial, steps):
        ids = [f"w{i}" for i in range(initial)]
        fe = FleetFrontend(ids, policy=policy, seed=seed,
                           queue_capacity=capacity, shed_limit=shed_limit)
        oracle = OracleFrontend(ids, policy, seed, capacity, shed_limit)
        for op, payload, key, index in steps:
            wid = oracle.order[index % len(oracle.order)]
            if op == "submit":
                assert fe.submit(payload, key=key) == \
                    oracle.submit(payload, key)
            elif op == "serve":
                queue = fe.slots[wid].queue
                if queue:
                    assert queue.pop(0) == oracle.slots[wid]["queue"].pop(0)
            elif op == "add":
                new = f"n{len(oracle.order)}"
                fe.add_worker(new)
                oracle.add_worker(new)
            elif op == "drain":
                fe.drain(wid)
                oracle.drain(wid)
            elif op == "retire":
                if oracle.slots[wid]["queue"]:
                    with pytest.raises(ValueError):
                        fe.retire(wid)
                else:
                    fe.retire(wid)
                    oracle.retire(wid)
            else:
                assert fe.eject(wid) == oracle.eject(wid)
            assert (fe.healthy_count, fe.routable_count, fe.total_queued,
                    fe.dropped, fe.spilled, fe.rejected) == oracle.counts()
        assert fe.order == oracle.order
        assert list(fe.depths()) == oracle.order
        assert fe.routable_ids == tuple(
            w for w in oracle.order if oracle._routable(w))

    def test_ring_holds_only_routable_replicas(self):
        fe = FleetFrontend(["w0", "w1"], policy="hash", seed=9)
        for cycle in range(300):
            fe.add_worker(f"n{cycle}")
            if cycle % 3:
                fe.submit(b"r", key=str(cycle).encode())
            victim = fe.routable_ids[cycle % fe.routable_count]
            fe.drain(victim)
            fe.slots[victim].queue.clear()  # served out
            if cycle % 5 == 0:
                fe.eject(victim, "crashed")
            else:
                fe.retire(victim)
            assert len(fe._ring) == HASH_REPLICAS * fe.routable_count
        assert fe.routable_count == 2
        assert len(fe.order) == len(fe.slots) == len(fe.depths()) == 302


class TestMidstreamEjection:
    """Health ejection after partial routing: orphans must re-route and
    the rerun must land on bit-identical results."""

    def test_eject_after_partial_routing_remaps_only_orphans(self):
        keys = [f"session-{i}".encode() for i in range(30)]
        fe = FleetFrontend(["a", "b", "c"], policy="hash", seed=6)
        first_half = {k: fe.submit(b"r", key=k) for k in keys[:15]}
        victim = first_half[keys[0]]
        orphans = fe.eject(victim, "watchdog")
        assert len(orphans) == sum(
            1 for t in first_half.values() if t == victim)
        for k in keys:  # late arrivals and orphans avoid the victim
            assert fe.submit(b"r", key=k) != victim

    def test_raise_fleet_reroute_is_digest_identical(self):
        config = FleetConfig(engine_mode="raise", recover_watchdog=None)
        batch = [make_request(4) for _ in range(6)]
        batch.insert(1, traversal_request())  # clean request queued behind
        driver = FleetDriver(config, workers=3, seed=0)
        first = driver.run(batch)
        second = driver.run(batch)
        assert first.ejected and first.rerouted >= 1
        assert first.digest() == second.digest()

    def test_rerouted_responses_match_healthy_fleet(self):
        # The clean requests a dying worker orphaned must come back
        # byte-identical to what an attack-free fleet serves.
        clean = [make_request(4) for _ in range(6)]
        attacked = list(clean)
        attacked.insert(1, traversal_request())
        raise_config = FleetConfig(engine_mode="raise",
                                   recover_watchdog=None)
        hurt = FleetDriver(raise_config, workers=3, seed=0).run(attacked)
        calm = FleetDriver(FleetConfig(), workers=3, seed=0).run(clean)
        def bodies(result):
            # The dying worker logs an empty buffer for the attack
            # itself; only full 200 responses are comparable.
            out = []
            for w in result.workers:
                out.extend(bytes(r) for r in w["responses"]
                           if bytes(r).startswith(b"HTTP/1.0 200"))
            return sorted(out)
        assert hurt.ejected and hurt.rerouted >= 1
        assert bodies(hurt) == bodies(calm)


class TestBoundedSimNetwork:
    def test_capacity_refuses_and_counts(self):
        net = SimNetwork(capacity=2)
        assert net.add_request(b"a") is not None
        assert net.add_request(b"b") is not None
        assert net.add_request(b"c") is None
        assert net.dropped == 1
        assert len(net.pending) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SimNetwork(capacity=0)

    def test_drops_surface_in_machine_metrics(self):
        machine = build_worker(FleetConfig(net_capacity=1,
                                           engine_mode="raise"))
        machine.net.add_request(make_request(4))
        assert machine.net.add_request(make_request(4)) is None
        flat = machine.metrics()
        assert flat["net.dropped"] == 1
        assert flat["net.capacity"] == 1
        assert flat["net.pending"] == 1


def _traced(path):
    return FleetConfig(engine_mode="raise", tracing=True, trace_path=path)


class TestTracePathUniquing:
    def test_explicit_ids_get_distinct_files(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        config = _traced(path)
        a = build_worker(config, "w0")
        b = build_worker(config, "w1")
        assert a.trace_path == str(tmp_path / "trace.w0.jsonl")
        assert b.trace_path == str(tmp_path / "trace.w1.jsonl")

    def test_second_live_machine_cannot_clobber(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        a = build_worker(_traced(path))
        b = build_worker(_traced(path))
        assert a.trace_path == path
        assert b.trace_path != path
        assert b.trace_path.endswith(".jsonl")

    def test_traces_actually_land_in_their_own_files(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        machines = [build_worker(_traced(path), f"w{i}") for i in range(2)]
        for m in machines:
            m.net.add_request(make_request(4))
            m.run(max_instructions=100_000_000)
            m.obs.export()
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["trace.w0.jsonl", "trace.w1.jsonl"]
        for p in tmp_path.iterdir():
            assert p.read_text().strip()


class TestFleetDriver:
    def test_round_robin_fleet_serves_everything(self):
        driver = FleetDriver(FleetConfig(), workers=2, seed=0)
        result = driver.run([make_request(4) for _ in range(6)])
        assert result.routed == {"w0": 3, "w1": 3}
        assert result.served == 6
        assert result.quarantined == 0
        assert not result.ejected
        assert result.sim_cycles == max(w["metrics"]["cpu.cycles"]
                                        for w in result.workers)

    def test_fixed_seed_is_bit_reproducible(self):
        driver = FleetDriver(FleetConfig(), workers=2, routing="hash", seed=5)
        batch = [f"GET /file4k.bin HTTP/1.0\r\nX: {i}\r\n\r\n".encode()
                 for i in range(6)]
        assert driver.run(batch).digest() == driver.run(batch).digest()

    def test_recover_fleet_quarantines_attacks(self):
        driver = FleetDriver(FleetConfig(), workers=2, seed=0)
        batch = [make_request(4) for _ in range(6)]
        batch.insert(1, traversal_request())
        batch.insert(4, traversal_request())
        result = driver.run(batch)
        assert result.served == 6
        assert result.quarantined == 2
        assert not result.ejected
        incidents = result.incidents()
        assert {i["worker"] for i in incidents} <= {"w0", "w1"}
        assert all(i["policy_id"] == "H2" for i in incidents)

    def test_raise_fleet_ejects_and_reroutes(self):
        config = FleetConfig(engine_mode="raise", recover_watchdog=None)
        batch = [make_request(4) for _ in range(6)]
        batch.insert(1, traversal_request())
        result = FleetDriver(config, workers=3, seed=0).run(batch)
        assert result.ejected == ["w1"]
        assert result.served == 6  # every clean request still answered
        assert result.rerouted >= 1
        assert result.unserved == 0

    def test_merged_metrics_and_incident_report(self):
        driver = FleetDriver(FleetConfig(), workers=2, seed=0)
        batch = [make_request(4) for _ in range(4)]
        batch.insert(2, traversal_request())
        result = driver.run(batch)
        flat = result.metrics()
        assert flat["fleet.workers"] == 2
        assert flat["fleet.served"] == 4
        assert flat["fleet.quarantined"] == 1
        assert flat["net.completed"] == 4
        assert flat["cpu.instructions"] == sum(
            w["metrics"]["cpu.instructions"] for w in result.workers)
        report = incident_report(result)
        assert len(report["incidents"]) == 1
        assert report["incidents"][0]["policy_id"] == "H2"
        text = render_incidents(result)
        assert "quarantined request" in text and "H2" in text

    def test_merged_delta_ratio_is_recomputed(self):
        result = FleetDriver(FleetConfig(), workers=2, seed=0).run(
            [make_request(4) for _ in range(6)])
        snaps = [w["metrics"] for w in result.workers]
        assert all(s["resil.delta_ratio"] == 0.75 for s in snaps)
        deltas = sum(s["resil.delta_captures"] for s in snaps)
        captures = sum(s["resil.capture_count"] for s in snaps)
        assert result.metrics()["resil.delta_ratio"] == round(
            deltas / captures, 6)

    def test_merged_mode_flags_stay_flags(self):
        result = FleetDriver(FleetConfig(adaptive="on"), workers=2,
                             seed=0).run([make_request(4) for _ in range(4)])
        assert [w["metrics"]["adaptive.mode"] for w in result.workers] \
            == [1, 1]
        assert result.metrics()["adaptive.mode"] == 1

    def test_attack_mix_digest_is_pinned(self):
        # Recorded constant: each worker's served count, cycles,
        # instructions, quarantines and response hashes over a strict
        # recover-mode attack mix.  A change to how a worker run is
        # served or recorded moves it.
        attacks = [traversal_request(), overflow_request(),
                   traversal_request("/../etc/passwd")]
        batch = []
        for i in range(6):
            batch.append(make_request(4))
            if i < len(attacks):
                batch.append(attacks[i])
        result = FleetDriver(
            FleetConfig(variant="resil", options=BYTE_LEVEL,
                        recover_watchdog=2_000_000),
            workers=2, seed=0).run(batch)
        assert (result.served, result.quarantined, result.ejected) == \
            (6, 3, [])
        assert result.digest() == ("c9b9737e0285fbd56c2da7e84278bd52"
                                   "91fd7834131c79486e1ca6120b6e4b39")

    def test_incident_names_worker_request_and_origin(self):
        driver = FleetDriver(FleetConfig(tracing=True), workers=2, seed=0)
        batch = [make_request(4) for _ in range(2)]
        batch.insert(1, traversal_request())
        result = driver.run(batch)
        (incident,) = result.incidents()
        assert incident["worker"] in ("w0", "w1")
        assert incident["request_index"] == 1
        assert incident["origins"], "tracing fleets must record origins"
        assert "network" in incident["origins"][0]

    def test_tagged_messages_route_like_bytes(self):
        driver = FleetDriver(FleetConfig(), workers=2, seed=0)
        batch = [
            TaggedMessage.from_flags(make_request(4),
                                     [True] * len(make_request(4)))
            for _ in range(4)
        ]
        result = driver.run(batch)
        assert result.served == 4


class TestMultiprocessing:
    @pytest.mark.parametrize("routing", ["round_robin", "hash"])
    def test_process_driver_matches_inline_digest(self, routing):
        driver = FleetDriver(FleetConfig(), workers=2, routing=routing,
                             seed=0)
        tagged = TaggedMessage.from_flags(make_request(4),
                                          [True] * len(make_request(4)))
        batch = [make_request(4), traversal_request(), make_request(4),
                 tagged, make_request(4)]
        inline = driver.run(batch)
        spawned = driver.run(batch, processes=True)
        assert spawned.served == 4
        assert spawned.quarantined == inline.quarantined == 1
        assert spawned.routed == inline.routed
        assert spawned.digest() == inline.digest()


class TestTwoTier:
    def test_transported_tags_are_load_bearing(self):
        exp = two_tier_experiment(clean=2, attacks=1, proxy_workers=1,
                                  seed=0)
        tagged, control = exp["tagged"], exp["control"]
        # With tags: the backend catches the traversal it could not
        # otherwise see (its own ingress is trusted).
        assert tagged["tier2"]["detected_h2"] == 1
        assert tagged["tier2"]["quarantined"] == 1
        assert tagged["tier2"]["served"] == 2
        assert not tagged["tier2"]["secret_leaked"]
        # Without tags: same bytes sail through and the secret leaks.
        assert control["tier2"]["detected_h2"] == 0
        assert control["tier2"]["served"] == 3
        assert control["tier2"]["secret_leaked"]
        assert control["tier2"]["alerts"] == []
        assert exp["proof"] is True
