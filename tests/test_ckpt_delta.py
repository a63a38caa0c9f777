"""Copy-on-write delta checkpoints: dirty-page tracking soundness,
chain capture/restore, delta-vs-full supervisor equivalence, the fd
and connection dirty sets, and a differential property test of the
epoch protocol."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.webserver import (
    make_request,
    overflow_request,
    runaway_request,
    traversal_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.fleet.driver import FleetConfig, build_worker
from repro.isa.operands import GR_FIRST_ARG, GR_RET
from repro.mem import PAGE_SIZE, REGION_DATA, SparseMemory, make_address
from repro.resil import DeltaCheckpoint, MachineCheckpoint
from repro.resil.checkpoint import adopt_epoch
from repro.resil.migrate import pack_worker, rehydrate_worker
from repro.taint.bitmap import TaintMap, pack_flags
from tests.test_resil import _machine_state

ENGINES = ("reference", "predecoded")
ATTACK_OPTIONS = ShiftOptions(granularity=1)
WATCHDOG = 2_000_000

BASE = make_address(REGION_DATA, 0x8000)

#: (kind, page-spanning offset, length, value) — enough entropy to hit
#: multi-page writes, tag-space pages and page-boundary straddles.
_operations = st.lists(
    st.tuples(
        st.sampled_from(["store", "blob", "taint", "clear", "import"]),
        st.integers(min_value=0, max_value=4 * PAGE_SIZE - 64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ),
    min_size=1,
    max_size=25,
)


def _image(mem):
    """Full page image (the oracle the dirty set is judged against)."""
    return {pno: bytes(pg) for pno, pg in mem._pages.items()}


def _apply(mem, taint_map, op):
    kind, offset, length, value = op
    addr = BASE + offset
    if kind == "store":
        size = 1 << (value % 4)  # 1, 2, 4 or 8 bytes
        mem.store(addr, size, value & ((1 << (8 * size)) - 1))
    elif kind == "blob":
        blob = bytes((value + i) & 0xFF for i in range(length))
        mem.write_bytes(addr, blob)
    elif kind == "taint":
        taint_map.set_range(addr, length, True)
    elif kind == "clear":
        taint_map.set_range(addr, length, False)
    else:  # import: authoritative per-byte tag vector
        flags = [bool((value >> (i % 64)) & 1) for i in range(length)]
        taint_map.import_range(addr, length, pack_flags(flags))


class TestDirtyTracking:
    """The SparseMemory dirty set is a sound, sufficient restore set."""

    @settings(max_examples=30, deadline=None)
    @given(ops=_operations, granularity=st.sampled_from([1, 8]))
    def test_dirty_set_matches_page_diff_oracle(self, ops, granularity):
        """Every page differing from the base image is dirty, and
        rewriting *only* dirty pages restores the base bit-for-bit —
        exactly what delta capture + restore relies on."""
        mem = SparseMemory()
        taint_map = TaintMap(mem, granularity)
        # A non-trivial base: data and live tags to overwrite/clear.
        mem.write_bytes(BASE, bytes(range(96)))
        mem.write_bytes(BASE + 2 * PAGE_SIZE, b"\xAB" * 32)
        taint_map.set_range(BASE + 8, 24, True)
        base = _image(mem)
        mem.begin_epoch()

        for op in ops:
            _apply(mem, taint_map, op)

        dirty = set(mem.dirty_pages())
        zero = bytes(PAGE_SIZE)
        for pno in set(base) | set(mem._pages):
            now = bytes(mem._pages[pno]) if pno in mem._pages else zero
            if now != base.get(pno, zero):
                assert pno in dirty, f"page {pno} changed but not dirty"

        # Sufficiency: undo exactly the dirty pages -> base image.
        for pno in dirty:
            if pno in mem._pages:
                mem._pages[pno][:] = base.get(pno, zero)
        for pno in set(base) | set(mem._pages):
            now = bytes(mem._pages[pno]) if pno in mem._pages else zero
            assert now == base.get(pno, zero)

    def test_loads_never_dirty_and_stores_dirty_once(self):
        mem = SparseMemory()
        mem.begin_epoch()
        mem.load(BASE, 8)
        mem.read_bytes(BASE + PAGE_SIZE, 64)
        assert mem.dirty_count() == 0
        for i in range(100):
            mem.store(BASE + i, 1, i & 0xFF)
        assert mem.dirty_count() == 1  # same page, counted once

    def test_epoch_tokens_are_unique_and_rebind_keeps_them_so(self):
        mem = SparseMemory()
        first = mem.begin_epoch()
        second = mem.begin_epoch()
        assert second > first
        # A migrated-in chain may carry a *larger* token than this
        # memory ever issued; rebind must keep future tokens above it.
        mem.rebind_epoch(second + 10)
        assert mem.dirty_epoch == second + 10
        assert mem.begin_epoch() > second + 10
        assert mem.dirty_count() == 0


def _recover_machine(engine, *, clean=4, attacks=(), mode="recover"):
    machine = build_worker(FleetConfig(
        variant="resil", options=ATTACK_OPTIONS, engine_mode=mode,
        recover_watchdog=WATCHDOG, engine=engine))
    attacks = list(attacks)
    for i in range(clean):
        machine.net.add_request(make_request(4))
        if i < len(attacks):
            machine.net.add_request(attacks[i])
    return machine


class TestDeltaChain:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chain_restore_walks_backwards_exactly(self, engine):
        """base -> delta1 -> delta2: restoring any node (newest first,
        then older slow-path nodes) reproduces the state at capture."""
        machine = _recover_machine(engine, clean=6, mode="raise")
        machine.cpu.run_slice(3_000)
        base = MachineCheckpoint.capture(machine)
        state0 = _machine_state(machine)

        machine.cpu.run_slice(4_000)
        delta1 = DeltaCheckpoint.capture(machine, base)
        state1 = _machine_state(machine)

        machine.cpu.run_slice(4_000)
        delta2 = DeltaCheckpoint.capture(machine, delta1)
        state2 = _machine_state(machine)

        assert delta2.chain_length == 3
        assert state0 != state1 != state2
        assert not machine.cpu.halted
        machine.cpu.run_slice(3_000)  # diverge past the tip

        delta2.restore(machine)
        assert _machine_state(machine) == state2
        delta1.restore(machine)  # older node: slow-path chain walk
        assert _machine_state(machine) == state1
        base.restore(machine)
        assert _machine_state(machine) == state0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_cost_scales_with_touched_not_resident_pages(self, engine):
        """A full snapshot pays for the resident set; a delta pays only
        for pages the window touched.  Seed a large resident block the
        guest never writes: the full capture carries it, deltas don't."""
        machine = _recover_machine(engine, clean=6, mode="raise")
        machine.memory.write_bytes(
            BASE + 16 * PAGE_SIZE, b"\x5A" * (32 * PAGE_SIZE))
        machine.cpu.run_slice(3_000)
        base = MachineCheckpoint.capture(machine)
        machine.cpu.run_slice(4_000)
        assert not machine.cpu.halted
        delta = DeltaCheckpoint.capture(machine, base)
        assert base.page_count >= 32
        assert 0 < delta.page_count < base.page_count // 4
        assert delta.byte_size == delta.page_count * PAGE_SIZE
        assert base.byte_size == base.page_count * PAGE_SIZE

    def test_delta_capture_demands_a_matching_epoch(self):
        machine = _recover_machine("predecoded", clean=2, mode="raise")
        machine.cpu.run_slice(3_000)
        base = MachineCheckpoint.capture(machine)
        machine.memory.begin_epoch()  # someone else reset the window
        with pytest.raises(ValueError):
            DeltaCheckpoint.capture(machine, base)

    def test_absorb_folds_a_delta_into_its_base(self):
        machine = _recover_machine("predecoded", clean=6, mode="raise")
        machine.cpu.run_slice(3_000)
        base = MachineCheckpoint.capture(machine)
        state0 = _machine_state(machine)
        machine.cpu.run_slice(4_000)
        assert not machine.cpu.halted
        delta = DeltaCheckpoint.capture(machine, base)
        state1 = _machine_state(machine)
        machine.cpu.run_slice(3_000)

        base.absorb(delta)
        base.restore(machine)
        assert _machine_state(machine) == state1 != state0


class TestDeltaVsFullSupervision:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_recover_runs_bit_identical_under_both_schemes(self, engine):
        """use_delta on/off: same quarantines, same responses, same
        final machine state — deltas change cost, never behaviour."""
        def run(use_delta):
            machine = _recover_machine(
                engine, clean=4,
                attacks=(overflow_request(), traversal_request(),
                         runaway_request()))
            machine.resil.use_delta = use_delta
            machine.run()
            return machine

        with_delta = run(True)
        with_full = run(False)
        assert with_delta.resil.delta_captures > 0
        assert with_full.resil.delta_captures == 0
        assert _machine_state(with_delta) == _machine_state(with_full)
        assert bytes(with_delta.console.out) == bytes(with_full.console.out)
        assert (list(with_delta.net.quarantined)
                == list(with_full.net.quarantined))
        assert (len(with_delta.resil.incidents)
                == len(with_full.resil.incidents) == 3)

    def test_tight_chain_bound_folds_and_stays_correct(self):
        machine = _recover_machine(
            "predecoded", clean=4, attacks=(overflow_request(),))
        machine.resil.max_chain = 2
        machine.run()
        assert len(machine.resil.chain) <= 2
        assert len(machine.resil.incidents) == 1
        assert len(machine.net.quarantined) == 1


class TestCheckpointObservability:
    def test_metrics_expose_delta_accounting(self):
        machine = _recover_machine("predecoded", clean=5)
        machine.run()
        sup = machine.resil
        assert sup.full_captures >= 1
        assert sup.delta_captures >= 1
        assert sup.pages_captured > 0
        assert sup.bytes_captured == sup.pages_captured * PAGE_SIZE

        flat = machine.metrics()
        assert flat["resil.capture_count"] == sup.checkpoints_taken
        assert flat["resil.full_captures"] == sup.full_captures
        assert flat["resil.delta_captures"] == sup.delta_captures
        assert flat["resil.checkpoint_pages"] == sup.pages_captured
        assert flat["resil.checkpoint_bytes"] == sup.bytes_captured
        assert flat["resil.chain_length"] == len(sup.chain)
        assert flat["resil.delta_ratio"] == pytest.approx(
            sup.delta_captures / sup.checkpoints_taken)

    def test_incident_records_the_restored_checkpoint(self):
        machine = _recover_machine(
            "predecoded", clean=3, attacks=(overflow_request(),))
        machine.run()
        (incident,) = machine.resil.incidents
        assert incident.checkpoint_kind in ("full", "delta")
        assert incident.checkpoint_pages > 0
        assert (incident.checkpoint_bytes
                == incident.checkpoint_pages * PAGE_SIZE)


def _call_native(machine, name, *args):
    """Run one native handler directly; its return value."""
    cpu = machine.cpu
    for i, value in enumerate(args):
        cpu.write_gr(GR_FIRST_ARG + i, value, nat=False)
    machine.os._natives[name](cpu)
    return cpu.read_gr(GR_RET)


class TestDirtyOsState:
    """fd and connection records follow the same epoch protocol as
    pages: a delta holds what the window touched, not what history
    left behind."""

    def test_delta_records_do_not_grow_with_served_requests(self):
        """The resil server never closes a connection fd, so the fd
        table and the connection list grow by one per request.  The
        delta captured after 50 served requests and the one after 1,000
        hold the same few fd and connection records; a full capture
        holds them all."""
        machine = _recover_machine("predecoded", clean=1_000)
        sup = machine.resil
        capture = sup.checkpoint_now
        records = []

        def recording(reason="manual"):
            cp = capture(reason)
            records.append((cp.kind, len(cp.fds), len(cp.conns)))
            return cp

        sup.checkpoint_now = recording
        machine.run()
        assert len(machine.net.completed) == 1_000
        # Capture k is taken at the accept after k served requests.
        assert records[50][0] == records[1_000][0] == "delta"
        assert records[50][1:] == records[1_000][1:]
        assert max(records[1_000][1:]) <= 4
        full = MachineCheckpoint.capture(machine)
        assert len(full.fds) >= 1_000
        assert len(full.conns) == 1_000

    def test_every_fd_and_cursor_mutation_is_dirty(self):
        """Each native that changes the fd table or a connection's
        cursors puts exactly that entry in its dirty set; a closed fd is
        recorded as a None tombstone, which absorb drops."""
        machine = _recover_machine("predecoded", clean=1, mode="raise")
        os, net = machine.os, machine.net
        buf, path = machine.address_of("req"), machine.address_of("path")

        def dirtied(name, *args):
            """Run one native on a fresh epoch; the (fds, connection
            indexes) it dirtied."""
            adopt_epoch(machine)
            _call_native(machine, name, *args)
            return os.dirty_fds, set(net.dirty)

        assert dirtied("accept") == ({8}, set())
        assert dirtied("recv", 8, buf, 16) == (set(), {1})
        assert dirtied("send", 8, buf, 4) == (set(), {1})
        machine.memory.write_bytes(path, b"/www/file4k.bin\0")
        assert dirtied("open", path, 0) == ({9}, set())
        assert dirtied("read", 9, buf + 64, 16) == ({9}, set())
        machine.memory.write_bytes(path, b"/www/log\0")
        assert dirtied("open", path, 1) == ({10}, set())
        assert dirtied("write", 10, buf, 4) == ({10}, set())

        base = MachineCheckpoint.capture(machine)
        assert set(base.fds) == {8, 9, 10}
        assert _call_native(machine, "close", 9) == 0
        assert os.dirty_fds == {9}
        delta = DeltaCheckpoint.capture(machine, base)
        assert delta.fds == {9: None}
        base.absorb(delta)
        assert set(base.fds) == {8, 10}

    def test_readopt_hands_back_what_the_dropped_delta_recorded(self):
        """repro.spec drops its epoch delta by re-adopting the parent's
        epoch: the dirty sets must take back the delta's fds and
        connections, or a fast-path restore of the parent would keep
        the epoch's effects."""
        machine = _recover_machine("predecoded", clean=1, mode="raise")
        base = MachineCheckpoint.capture(machine)
        state = _machine_state(machine)
        fd = _call_native(machine, "accept")
        _call_native(machine, "recv", fd, machine.address_of("req"), 16)
        delta = DeltaCheckpoint.capture(machine, base)
        assert not machine.os.dirty_fds and not machine.net.dirty

        adopt_epoch(machine, base.epoch, delta)
        assert machine.memory.dirty_epoch == base.epoch
        assert machine.os.dirty_fds == {fd}
        assert set(machine.net.dirty) == {1}
        base.restore(machine)
        assert _machine_state(machine) == state


#: Requests the property test queues: a served file and a 404.
_REQUESTS = (make_request(4), b"GET /missing.bin HTTP/1.0\r\n\r\n")

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, len(_REQUESTS) - 1)),
        st.tuples(st.just("run"), st.integers(200, 30_000)),
        st.tuples(st.just("delta"), st.just(0)),
        st.tuples(st.just("full"), st.just(0)),
        st.tuples(st.just("restore"), st.integers(0, 3)),
        st.tuples(st.just("restore"), st.integers(0, 3)),
        st.tuples(st.just("migrate"), st.just(0)),
    ),
    min_size=4,
    max_size=30,
)


class TestEpochProtocolProperty:
    """Differential property of the epoch protocol: through any
    interleaving of arrivals, execution, full and delta captures (with
    ``max_chain=2`` so chains fold), restores of any chain member and a
    migration round trip, a restore reproduces the machine state deep-
    copied at the matching capture — OS and network state included."""

    @staticmethod
    def _worker():
        machine = _recover_machine("predecoded", clean=2)
        machine.resil.max_chain = 2
        return machine

    @staticmethod
    def _record_captures(machine, at_capture):
        """Deep-copy the state at every capture, keyed by its epoch
        (a base that absorbs a delta adopts the delta's epoch)."""
        sup = machine.resil
        capture = sup.checkpoint_now

        def recording(reason="manual"):
            cp = capture(reason)
            at_capture[cp.epoch] = (_machine_state(machine),
                                    machine.net._next_index)
            return cp

        sup.checkpoint_now = recording

    @staticmethod
    def _expected(recorded, machine):
        """The captured state as a restore must reproduce it now:
        connections that arrived since queue behind the restored
        pending set, with fresh cursors."""
        state, next_index = recorded
        os_net = copy.deepcopy(state[-1])
        for index in range(next_index, machine.net._next_index):
            os_net["pending"].append(index)
            os_net["conns"][index] = (0, b"", None)
        return (*state[:-1], os_net)

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps)
    def test_restore_reproduces_state_at_capture(self, steps):
        machine = self._worker()
        at_capture = {}
        self._record_captures(machine, at_capture)
        # Chain members newer than a restored older one are no longer
        # restorable (their cursors assume bytes the restore dropped)
        # until the next capture starts a new chain.
        limit = None
        for action, arg in steps:
            sup = machine.resil
            if action == "arrive":
                machine.net.add_request(_REQUESTS[arg])
            elif action == "run":
                before = sup.checkpoints_taken
                if not machine.cpu.halted:
                    machine.cpu.run_slice(arg)
                if sup.checkpoints_taken != before:
                    limit = None
            elif action in ("delta", "full"):
                sup.use_delta = action == "delta"
                sup.checkpoint_now()
                sup.use_delta = True
                limit = None
            elif action == "restore" and sup.chain:
                members = sup.chain[:limit]
                pick = arg % len(members)
                cp = members[pick]
                cp.restore(machine)
                assert _machine_state(machine) == self._expected(
                    at_capture[cp.epoch], machine)
                limit = pick + 1
            elif action == "migrate":
                blob = pack_worker(machine)
                target = self._worker()
                rehydrate_worker(blob, target)
                assert _machine_state(target) == _machine_state(machine)
                machine = target
                self._record_captures(machine, at_capture)
                limit = None
