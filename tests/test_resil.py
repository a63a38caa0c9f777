"""Resilience subsystem tests: checkpoint/rollback, recover mode,
OOM guard, transient-I/O retries, and the fault-injection campaign."""

import pytest

from repro.apps.webserver import (
    RESIL_WEBSERVER_SOURCE,
    make_request,
    make_site,
    overflow_request,
    runaway_request,
    traversal_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine
from repro.cpu.faults import GuestOOMFault, RunawayError
from repro.harness.resilbench import attack_mix
from repro.harness.runners import ServerShortfallError, webserver_policy
from repro.resil import MachineCheckpoint, TransientErrorInjector
from repro.resil.inject import flip_tag, run_campaign, victim_machine
from repro.resil.transient import CampaignRng
from repro.taint.engine import SecurityAlert
from tests.conftest import BYTE_STRICT

ENGINES = ("reference", "predecoded")

READ = "native int read(int fd, char *buf, int n);\n"


def _os_net_state(machine):
    """Guest OS fd table and network state, by value."""
    os, net = machine.os, machine.net
    fds = {fd: (h.kind, h.path, h.pos,
                None if h.conn is None else h.conn.index,
                None if h.write_buffer is None else bytes(h.write_buffer))
           for fd, h in os._fds.items()}
    conns = {c.index: (c.read_pos, bytes(c.outbound),
                       None if c.outbound_tags is None
                       else list(c.outbound_tags))
             for c in (*net.pending, *net.completed, *net.quarantined)}
    return {"next_fd": os._next_fd, "fds": fds, "conns": conns,
            "pending": [c.index for c in net.pending],
            "completed": [c.index for c in net.completed],
            "quarantined": [c.index for c in net.quarantined]}


def _machine_state(machine):
    """Full observable state tuple for bit-identical comparisons."""
    cpu = machine.cpu
    pages = {pno: bytes(pg) for pno, pg in machine.memory._pages.items()
             if any(pg)}
    return (list(cpu.gr), list(cpu.nat), list(cpu.pr), list(cpu.br),
            cpu.pc, cpu.halted, machine.counters.snapshot(), pages,
            _os_net_state(machine))


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_replays_identically(self, engine):
        """resume-after-restore == the run the checkpoint interrupted."""
        def fresh():
            machine = build_machine(
                RESIL_WEBSERVER_SOURCE, BYTE_STRICT,
                policy_config=webserver_policy(),
                files=make_site((4,)), engine=engine)
            machine.net.add_request(make_request(4))
            machine.net.add_request(make_request(4))
            return machine

        machine = fresh()
        machine.cpu.run_slice(20_000)
        snapshot = MachineCheckpoint.capture(machine)
        machine.cpu.run_slice(30_000)
        first = _machine_state(machine)
        snapshot.restore(machine)
        machine.cpu.run_slice(30_000)
        second = _machine_state(machine)
        assert first == second

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_requeues_connections_accepted_after_it(self, engine):
        """Requests that arrive after a checkpoint and are served before
        it is restored are queued again, not lost: the rolled-back run
        answers all three exactly as a run that never rolled back."""
        def run(roll_back):
            machine = build_machine(
                RESIL_WEBSERVER_SOURCE, BYTE_STRICT,
                policy_config=webserver_policy(),
                files=make_site((4,)), engine=engine)
            machine.net.add_request(make_request(4))
            machine.cpu.run_slice(2_000)
            snapshot = MachineCheckpoint.capture(machine)
            machine.net.add_request(make_request(4))
            machine.net.add_request(make_request(4))
            machine.run()
            if roll_back:
                snapshot.restore(machine)
                assert [c.index for c in machine.net.pending] == [2, 3]
                assert [c.index for c in machine.net.completed] == [1]
                machine.run()
            return [bytes(c.outbound) for c in machine.net.completed]

        straight = run(roll_back=False)
        assert len(straight) == 3
        assert run(roll_back=True) == straight

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_erases_divergent_execution(self, engine):
        """State corrupted after the checkpoint is fully rolled back."""
        machine = build_machine(
            RESIL_WEBSERVER_SOURCE, BYTE_STRICT,
            policy_config=webserver_policy(),
            files=make_site((4,)), engine=engine)
        machine.net.add_request(make_request(4))
        machine.cpu.run_slice(10_000)
        snapshot = MachineCheckpoint.capture(machine)
        reference = _machine_state(machine)

        # Corrupt registers, memory, taint and counters, then restore.
        machine.cpu.write_gr(20, 0xDEAD, nat=True)
        machine.memory.store(machine.address_of("path"), 8, 0x41414141)
        machine.taint_map.set_range(machine.address_of("req"), 64, True)
        machine.cpu.run_slice(5_000)
        assert _machine_state(machine) != reference
        snapshot.restore(machine)
        assert _machine_state(machine) == reference


class TestCheckpointDifferential:
    def test_inject_rollback_resume_bit_identical(self):
        """checkpoint -> inject attack -> rollback -> resume matches a
        straight uninjected run, bit for bit, under both engines."""
        finals = {}
        for engine in ENGINES:
            # The control pauses at the same slice boundary (a pause
            # flushes the open issue group, which is observable in the
            # cycle accounting), then runs to completion uninjected.
            control = victim_machine(engine)
            control.cpu.run_slice(4_000)
            control.cpu.run_slice(5_000_000)
            expected = _machine_state(control)

            machine = victim_machine(engine)
            machine.cpu.run_slice(4_000)
            snapshot = MachineCheckpoint.capture(machine)
            flip_tag(machine, machine.address_of("buf") + 7)
            with pytest.raises(SecurityAlert):
                machine.cpu.run_slice(5_000_000)
            snapshot.restore(machine)
            machine.cpu.run_slice(5_000_000)
            assert machine.cpu.halted
            # The injected-and-recovered run ends in the exact state of
            # the run that never saw the injection (the alert record is
            # deliberate append-only evidence, not machine state).
            assert _machine_state(machine) == expected
            assert len(machine.alerts) == 1
            assert machine.alerts[0].policy_id == "L1"
            finals[engine] = (expected, machine.counters.snapshot())
        assert finals["reference"] == finals["predecoded"]


class TestRecoverWebserver:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_attack_mix_served_and_quarantined(self, engine):
        report = attack_mix(engine=engine)
        assert report["exact"]
        assert report["served"] == report["clean_requests"]
        assert report["quarantined"] == report["attacks"]
        reasons = [i["reason"] for i in report["incidents"]]
        assert reasons == ["alert", "alert", "runaway"]
        policies = [i["policy"] for i in report["incidents"]]
        assert policies[:2] == ["L1", "H2"]

    def test_recover_emits_obs_events(self):
        machine = build_machine(
            RESIL_WEBSERVER_SOURCE, BYTE_STRICT,
            policy_config=webserver_policy(),
            files=make_site((4,)),
            engine_mode="recover", recover_watchdog=2_000_000,
            tracing=True)
        machine.net.add_request(make_request(4))
        machine.net.add_request(overflow_request())
        machine.net.add_request(make_request(4))
        served = machine.run(max_instructions=200_000_000)
        assert served == 2
        kinds = [type(e).__name__ for e in machine.obs.tracer.events()]
        assert "CheckpointEvent" in kinds
        assert "RollbackEvent" in kinds
        assert "QuarantineEvent" in kinds

    def test_unrecoverable_fault_reraises(self):
        """An abort with no pending request at the checkpoint would
        recur deterministically, so recover mode must re-raise it."""
        source = READ + """
        char src[16];
        int main() {
            read(0, src, 8);
            int *p = (int *)(src[0] * 65536);
            return *p;
        }
        """
        machine = build_machine(source, BYTE_STRICT, stdin=b"\x42",
                                engine_mode="recover")
        with pytest.raises(SecurityAlert):
            machine.run(max_instructions=5_000_000)


OOM_SERVER = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int malloc(int n);

char req[64];
int served;

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        int n = recv(fd, req, 60);
        if (n > 0 && req[0] == 'M') {
            while (1) { malloc(1048576); }
        }
        send(fd, "ok", 2);
        served += 1;
    }
    return served;
}
"""


class TestGuestOOM:
    def test_heap_limit_raises_structured_fault(self):
        source = """
        native int malloc(int n);
        int main() {
            while (1) { malloc(4096); }
            return 0;
        }
        """
        machine = build_machine(source, ShiftOptions(heap_limit=65536))
        with pytest.raises(GuestOOMFault) as excinfo:
            machine.run(max_instructions=10_000_000)
        fault = excinfo.value
        assert fault.requested == 4096
        assert fault.limit == 65536
        assert 0 <= fault.in_use <= fault.limit

    def test_heap_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            ShiftOptions(heap_limit=0)

    def test_recover_mode_quarantines_malloc_bomb(self):
        machine = build_machine(
            OOM_SERVER, ShiftOptions(granularity=1, heap_limit=1 << 22),
            policy_config=webserver_policy(),
            engine_mode="recover")
        machine.net.add_request(b"hello")
        machine.net.add_request(b"MALLOC-BOMB")
        machine.net.add_request(b"world")
        served = machine.run(max_instructions=200_000_000)
        assert served == 2
        assert [i.reason for i in machine.resil.incidents] == ["oom"]
        assert [c.index for c in machine.net.quarantined] == [2]


TRANSIENT_READER = READ + """
native int open(char *path, int flags);
char buf[256];
int total;
int main() {
    int f = open("/data", 0);
    if (f < 0) { return -1; }
    int got = read(f, buf, 64);
    while (got > 0) {
        total += got;
        got = read(f, buf, 64);
    }
    if (got < 0) { return -2; }
    return total;
}
"""


class TestTransientIO:
    def test_retries_absorb_transient_errors(self):
        machine = build_machine(TRANSIENT_READER, ShiftOptions(mode="none"),
                                files={"/data": b"x" * 200})
        machine.fs.faults = TransientErrorInjector(seed=7, fail_rate=0.4)
        exit_code = machine.run(max_instructions=10_000_000)
        assert exit_code == 200
        assert machine.os.io_retries > 0
        assert machine.os.io_failures == 0

    def test_truncated_reads_still_deliver_everything(self):
        machine = build_machine(TRANSIENT_READER, ShiftOptions(mode="none"),
                                files={"/data": b"y" * 200})
        machine.fs.faults = TransientErrorInjector(seed=11,
                                                   truncate_rate=0.6)
        exit_code = machine.run(max_instructions=10_000_000)
        # Short reads shrink individual transfers, never lose bytes.
        assert exit_code == 200
        assert machine.fs.faults.injected_truncations > 0

    def test_exhausted_retries_surface_as_io_error(self):
        machine = build_machine(TRANSIENT_READER, ShiftOptions(mode="none"),
                                files={"/data": b"z" * 200})
        machine.fs.faults = TransientErrorInjector(seed=3, fail_rate=1.0)
        exit_code = machine.run(max_instructions=10_000_000)
        assert exit_code in ((-2) & ((1 << 64) - 1), -2, 254)
        assert machine.os.io_failures > 0


def _reference_lcg(seed, count):
    """The campaign LCG written out: 64-bit state, seed 0 read as 1,
    bits 33-63 of each state over 2**31."""
    mask = (1 << 64) - 1
    state = (seed or 1) & mask
    draws = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        draws.append(((state >> 33) & 0x7FFFFFFF) / float(1 << 31))
    return draws


class TestCampaignRng:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 12345 ^ 0x9E3779B9])
    def test_draws_match_the_reference_lcg(self, seed):
        reference = _reference_lcg(seed, 1000)
        rng = CampaignRng(seed)
        assert [rng.uniform() for _ in range(1000)] == reference
        # The injector fails an attempt exactly when its draw is below
        # the rate: it reads the same stream.
        injector = TransientErrorInjector(seed=seed, fail_rate=0.5)
        assert [injector.transient("read") for _ in range(1000)] == \
            [draw < 0.5 for draw in reference]


class TestCampaign:
    def test_quick_campaign_detects_everything(self):
        report = run_campaign(trials_per_kind=2, seed=99, quick=True)
        assert report["kinds"]["tag_flip"]["detection_rate"] == 1.0
        assert report["kinds"]["nat_drop"]["detection_rate"] == 1.0
        for control in report["controls"]:
            assert control["false_alerts"] == 0
        for kind in report["kinds"].values():
            assert kind["false_alerts"] == 0


class TestStructuredErrors:
    def test_server_shortfall_carries_counts(self):
        err = ServerShortfallError(3, 5)
        assert isinstance(err, AssertionError)
        assert (err.served, err.requested) == (3, 5)
        assert "3/5" in str(err)

    def test_runaway_gets_terminal_trace_event(self):
        source = """
        int main() {
            int i = 0;
            while (1) { i = i + 1; }
            return i;
        }
        """
        machine = build_machine(source, ShiftOptions(mode="none"),
                                tracing=True)
        with pytest.raises(RunawayError):
            machine.run(max_instructions=10_000)
        events = list(machine.obs.tracer.events())
        assert events, "expected a terminal trace event"
        last = events[-1]
        assert type(last).__name__ == "FaultEvent"
        assert last.fault == "RunawayError"
