"""repro.spec: speculative fast-path execution under taint-range guards.

The load-bearing claims tested here:

* :class:`~repro.spec.watch.TaintWatch` digests the tag bitmap into
  merged data ranges at both granularities, including taint that
  straddles a tag-page boundary, and refuses fragmented bitmaps;
* an epoch whose tainted bytes are all freed *mid-speculation* commits
  as ``taint-drained`` at the next boundary instead of rolling back;
* a taint source firing inside an epoch (the first speculative
  instruction of a request is the ``recv`` that taints the buffer)
  trips the taint-motion guard and the slice replays under tracking;
* speculative serving is observably identical to always-on tracking —
  responses, alerts with pcs, and taint origins — on both the clean
  and the seeded-misspeculation mixes;
* deferred sends from a rolled-back epoch never reach the wire: the
  two-tier fleet proof holds bit-for-bit under a speculating backend
  (no phantom bytes on misspeculation).
"""

import pytest

from repro.apps.specstore import (
    BENIGN_VALUE,
    contained_mix,
    misspec_mix,
    stor_request,
    sum_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine
from repro.fleet.driver import FleetConfig, build_worker
from repro.harness.runners import specstore_policy
from repro.spec import SPEC_MAX_RANGES, TaintWatch
from repro.taint.policy import PolicyConfig

BYTE_STRICT = ShiftOptions(granularity=1)
WORD = ShiftOptions(granularity=8)

TINY = "int main() { return 7; }"

#: Taint-then-free service: 'T' taints a slab, 'F' clears exactly the
#: tainted bytes host-side via the memset native (the drain happens
#: *inside* a speculation epoch), anything else answers PONG.
DRAIN_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int taint_region(char *p, int n);

char req[256];
char slab[64];

int serve(int fd) {
    int n = recv(fd, req, 200);
    if (n <= 0) {
        return 0;
    }
    req[n] = 0;
    if (req[0] == 'T') {
        int i = 0;
        while (i < 16) {
            slab[i] = 'x';
            i++;
        }
        taint_region(slab, 16);
        send(fd, "OK\\n", 3);
        return 1;
    }
    if (req[0] == 'F') {
        memset(slab, 0, 16);
        send(fd, "CLEARED\\n", 8);
        return 1;
    }
    send(fd, "PONG\\n", 5);
    return 1;
}

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        serve(fd);
    }
    return 0;
}
"""


#: Plain echo: every request is tainted at the ``recv`` source, so the
#: second request's taint import is the *first* speculative native of
#: its epoch — and it widens taint past the watch built from the first.
ECHO_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);

char req[256];

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        int n = recv(fd, req, 200);
        if (n > 0) {
            send(fd, req, n);
        }
    }
    return 0;
}
"""


def _quiet_policy() -> PolicyConfig:
    config = PolicyConfig()
    config.tainted_sources["network"] = False
    config.tainted_sources["file"] = False
    return config


def _tainted_net_policy() -> PolicyConfig:
    config = PolicyConfig()
    config.tainted_sources["network"] = True
    config.tainted_sources["file"] = False
    return config


def _spec_events(machine, action=None):
    events = [e for e in machine.obs.tracer.events() if e.KIND == "spec"]
    if action is not None:
        events = [e for e in events if e.action == action]
    return events


def _run_specstore(adaptive, requests, *, options=BYTE_STRICT,
                   policy=None, engine="predecoded"):
    machine = build_worker(FleetConfig(
        variant="specstore", options=options,
        policy_config=policy if policy is not None else specstore_policy(),
        files={}, engine=engine, engine_mode="record",
        adaptive=adaptive, tracing=True))
    for payload in requests:
        machine.net.add_request(payload)
    served = machine.run(max_instructions=2_000_000_000)
    return machine, served


def _digest(machine):
    return (
        [bytes(c.outbound) for c in machine.net.completed],
        [(a.policy_id, a.pc, a.message) for a in machine.alerts],
        [(o.source, o.label, o.index, o.start, o.length)
         for o in machine.obs.provenance.origins],
    )


# -- the taint watch --------------------------------------------------------


class TestTaintWatch:
    @pytest.mark.parametrize("options", [BYTE_STRICT, WORD],
                             ids=["byte", "word"])
    def test_range_straddling_tag_page_boundary(self, options):
        # Tag offsets 4088..4104 span two tag pages; the watch must
        # merge the per-page runs into one contiguous guarded range.
        machine = build_machine(TINY, options,
                                policy_config=_quiet_policy())
        lo = 4095 << 3
        machine.taint_map.set_range(lo, 16, True)
        watch = TaintWatch.build(machine, SPEC_MAX_RANGES)
        assert watch is not None
        assert len(watch.linear_ranges) == 1
        assert watch.intersects(lo, lo + 16)
        assert watch.intersects(lo + 8, lo + 9)  # across the boundary
        assert watch.contains_linear(lo, lo + 16)
        assert not watch.intersects(lo + 1024, lo + 1040)
        # A sound superset: the tag-byte widening may guard a few
        # bytes around the tainted span, never fewer.
        assert watch.guarded_bytes >= 16

    def test_fragmented_bitmap_refused(self):
        machine = build_machine(TINY, BYTE_STRICT,
                                policy_config=_quiet_policy())
        # One granule per tag page: unmergeable, > SPEC_MAX_RANGES.
        for i in range(SPEC_MAX_RANGES + 4):
            machine.taint_map.set_range(i * (4096 << 3), 1, True)
        assert TaintWatch.build(machine, SPEC_MAX_RANGES) is None

    def test_empty_bitmap_builds_empty_watch(self):
        machine = build_machine(TINY, BYTE_STRICT,
                                policy_config=_quiet_policy())
        watch = TaintWatch.build(machine, SPEC_MAX_RANGES)
        assert watch is not None and watch.ranges == []


# -- epoch lifecycle --------------------------------------------------------


class TestEpochLifecycle:
    def test_taint_freed_mid_speculation_commits_drained(self):
        machine = build_machine(
            DRAIN_SOURCE, BYTE_STRICT, policy_config=_quiet_policy(),
            adaptive="speculate", tracing=True)
        for payload in (b"T", b"F", b"X"):
            machine.net.add_request(payload)
        machine.run(max_instructions=500_000_000)
        assert [bytes(c.outbound) for c in machine.net.completed] == [
            b"OK\n", b"CLEARED\n", b"PONG\n"]
        spec = machine.spec
        assert spec.rollbacks == 0
        drained = [e for e in _spec_events(machine, "commit")
                   if e.reason == "taint-drained"]
        assert drained, "the freed-slab epoch must commit as drained"
        # Once drained the machine is taint-free: no further epochs.
        assert machine.taint_map.live_granules == 0

    def test_source_fires_on_first_speculative_instruction(self):
        # Request 1 taints req[0..8); request 2's epoch opens at the
        # recv top with a watch over those 8 bytes, then recv — the
        # first speculative native of the epoch — imports 30 tainted
        # bytes past the watch: taint motion, rollback, replay.
        requests = [b"A" * 8, b"B" * 30, b"C" * 4]

        def run(speculate):
            machine = build_machine(
                ECHO_SOURCE, BYTE_STRICT,
                policy_config=_tainted_net_policy(),
                adaptive="speculate" if speculate else "none", tracing=True)
            for payload in requests:
                machine.net.add_request(payload)
            machine.run(max_instructions=500_000_000)
            return machine

        spec_m = run(True)
        track_m = run(False)
        trips = [e for e in _spec_events(spec_m, "rollback")
                 if e.reason == "taint-motion"]
        assert trips, "the widening recv import must trip the guard"
        assert spec_m.spec.rollbacks >= 1
        assert _digest(spec_m) == _digest(track_m)
        # The replayed echoes carry full per-request provenance.
        assert len(track_m.obs.provenance.origins) == len(requests)

    @pytest.mark.parametrize("engine", ["predecoded", "reference"])
    def test_contained_mix_identical_and_faster(self, engine):
        requests = contained_mix(4)
        spec_m, spec_served = _run_specstore("speculate", requests,
                                             engine=engine)
        track_m, track_served = _run_specstore("track", requests,
                                               engine=engine)
        assert spec_served == track_served == len(requests)
        assert _digest(spec_m) == _digest(track_m)
        assert spec_m.spec.commits > 0
        assert spec_m.spec.rollbacks == 0
        assert spec_m.counters.cycles < track_m.counters.cycles

    @pytest.mark.parametrize("options", [BYTE_STRICT, WORD],
                             ids=["byte", "word"])
    def test_misspec_replay_digest_equal(self, options):
        requests = misspec_mix(2)
        spec_m, _ = _run_specstore("speculate", requests, options=options)
        track_m, _ = _run_specstore("track", requests, options=options)
        # GET 0 (benign watched read) + EXEC 0 (real H4 injection).
        assert spec_m.spec.rollbacks == 2
        assert [a.policy_id for a in spec_m.alerts] == ["H4"]
        assert _digest(spec_m) == _digest(track_m)

    def test_spec_metrics_exported(self):
        spec_m, _ = _run_specstore("speculate", contained_mix(2))
        snapshot = spec_m.metrics()
        assert snapshot["adaptive.spec.epochs"] == spec_m.spec.epochs
        assert snapshot["adaptive.spec.commits"] == spec_m.spec.commits
        assert snapshot["adaptive.spec.rollbacks"] == 0


# -- fleet integration ------------------------------------------------------


class TestFleetSpeculation:
    def test_worker_summary_carries_spec_stats(self):
        from repro.fleet.driver import run_worker

        config = FleetConfig(variant="specstore", options=BYTE_STRICT,
                             policy_config=specstore_policy(),
                             engine_mode="record", recover_watchdog=None,
                             adaptive="speculate")
        summary, machine = run_worker(
            config, "w0",
            [(stor_request(0, BENIGN_VALUE), None), (sum_request(), None)])
        assert summary["metrics"]["adaptive.spec.epochs"] == \
            machine.spec.epochs
        assert summary["metrics"]["adaptive.spec.commits"] == \
            machine.spec.commits

    def test_two_tier_no_phantom_bytes_on_misspeculation(self):
        # The deferred-send proof end to end: a speculating backend's
        # rolled-back epochs must leave *zero* bytes on the wire — the
        # responses of the speculate arm are digest-identical to the
        # plain arm, attacks included.
        from repro.fleet.tiers import run_two_tier

        plain = run_two_tier(clean=3, attacks=2, adaptive="none")
        spec = run_two_tier(clean=3, attacks=2, adaptive="speculate")
        assert plain["ok"] and spec["ok"]
        assert spec["tier2"]["spec"]["rollbacks"] > 0
        assert (spec["tier2"]["response_digests"]
                == plain["tier2"]["response_digests"])
        assert (spec["tier2"]["response_bytes"]
                == plain["tier2"]["response_bytes"])
        assert spec["tier2"]["detected_h2"] == plain["tier2"]["detected_h2"]
