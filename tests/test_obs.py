"""Observability subsystem: events, tracer, provenance, metrics, forensics.

Covers the repro.obs package in isolation plus its Machine integration:
the zero-overhead disabled path (SPEC counters bit-identical with
tracing off) and the end-to-end origin chain for crafted overflows — a
low-level (NaT fault) and a high-level (use point) detection each name
the input bytes that caused the alert.
"""

import json

import pytest

from repro.apps.spec import BENCHMARKS
from repro.apps.vulnerable import BFTPD, QWIKIWIKI
from repro.compiler.instrument import BYTE_LEVEL
from repro.core.shift import build_machine, compile_protected
from repro.cpu.faults import Fault
from repro.harness.runners import PERF_OPTIONS, spec_policy
from repro.obs.events import (
    EVENT_TYPES,
    AlertEvent,
    FaultEvent,
    SyscallEvent,
    TaintSourceEvent,
    TaintStoreEvent,
)
from repro.obs.metrics import collect_machine, render
from repro.obs.provenance import ProvenanceTracker
from repro.obs.report import disassemble_window, render_incidents
from repro.obs.tracer import Tracer
from repro.taint.engine import SecurityAlert

SOURCE = """
native int read(int fd, char *buf, int n);
char buf[64];
int main() {
    int n = read(0, buf, 32);
    int s = 0;
    for (int i = 0; i < n; i++) s += buf[i];
    return s & 0xff;
}
"""


class TestEvents:
    def test_kinds_are_unique(self):
        kinds = [cls.KIND for cls in EVENT_TYPES]
        assert len(kinds) == len(set(kinds))
        assert "event" not in kinds  # every subclass overrides the base

    def test_to_dict_carries_kind_and_fields(self):
        event = TaintSourceEvent(source="network", label="request#1",
                                 addr=0x1000, length=8, origin_id=1,
                                 stream_offset=0, instruction_count=42)
        data = event.to_dict()
        assert data["kind"] == "taint_source"
        assert data["addr"] == 0x1000
        assert json.loads(json.dumps(data)) == data  # JSONL-safe

    def test_field_names_documents_schema(self):
        assert "origin_id" in TaintSourceEvent.field_names()
        assert "pc" in FaultEvent.field_names()
        assert "origin_ids" in AlertEvent.field_names()


class TestTracer:
    def test_emit_filter_last(self):
        tracer = Tracer()
        tracer.emit(SyscallEvent(name="read"))
        tracer.emit(TaintStoreEvent(op="set", addr=0x10, length=4))
        tracer.emit(SyscallEvent(name="recv"))
        assert len(tracer) == 3
        assert [e.name for e in tracer.events("syscall")] == ["read", "recv"]
        assert tracer.last("syscall").name == "recv"
        assert tracer.last("taint_store").op == "set"
        assert tracer.last("fault") is None

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.emit(SyscallEvent(name=f"call{i}"))
        assert len(tracer) == 4
        assert tracer.total_events == 6
        assert tracer.dropped == 2
        assert tracer.events()[0].name == "call2"  # 0 and 1 rolled off

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_summary_and_clear(self):
        tracer = Tracer()
        tracer.emit(SyscallEvent(name="read"))
        tracer.emit(SyscallEvent(name="read"))
        summary = tracer.summary()
        assert summary["events.syscall"] == 2
        assert summary["events.total"] == 2
        assert summary["events.dropped"] == 0
        tracer.clear()
        assert len(tracer) == 0 and tracer.summary()["events.total"] == 0

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(FaultEvent(fault="NaTConsumptionFault", detail="store_addr",
                               pc=7, instruction="st8 [r4] = r5"))
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "fault" and record["pc"] == 7


class TestProvenance:
    def test_record_and_origin_at(self):
        prov = ProvenanceTracker()
        origin = prov.record("network", "request#1", 1, addr=0x100,
                             length=8, stream_offset=4)
        found, offset = prov.origin_at(0x103)
        assert found is origin
        assert offset == 7  # byte 3 of the buffer = stream byte 4+3
        assert prov.origin_at(0x200) is None

    def test_contiguous_stream_reads_coalesce(self):
        prov = ProvenanceTracker()
        for i in range(5):  # byte-at-a-time recv loop
            prov.record("network", "request#1", 1, addr=0x100 + i,
                        length=1, stream_offset=i)
        assert len(prov.origins) == 1
        origin = prov.origins[0]
        assert (origin.start, origin.length) == (0, 5)
        assert origin.describe() == "origin #1: bytes 0-4 of network 'request#1'"

    def test_distinct_streams_do_not_coalesce(self):
        prov = ProvenanceTracker()
        prov.record("network", "request#1", 1, addr=0x100, length=4)
        prov.record("network", "request#2", 2, addr=0x104, length=4)
        prov.record("file", "/data", 3, addr=0x200, length=4)
        assert [o.origin_id for o in prov.origins] == [1, 2, 3]

    def test_copy_and_clear_range(self):
        prov = ProvenanceTracker()
        prov.record("stdin", "stdin", 0, addr=0x100, length=4)
        prov.copy_range(0x200, 0x100, 4)  # wrap memcpy propagates origins
        origin, offset = prov.origin_at(0x202)
        assert origin.source == "stdin" and offset == 2
        prov.clear_range(0x100, 4)
        assert prov.origin_at(0x100) is None
        assert prov.origin_at(0x200) is not None  # copy survives
        assert prov.live_origins() == [origin]

    def test_overlapping_copy_behaves_like_memmove(self):
        prov = ProvenanceTracker()
        prov.record("stdin", "stdin", 0, addr=0x100, length=4)
        prov.copy_range(0x102, 0x100, 4)
        _, offset = prov.origin_at(0x105)
        assert offset == 3  # from the pre-copy snapshot, not doubled

    def test_word_level_coarsens_like_tags(self):
        prov = ProvenanceTracker(granularity=8)
        prov.record("network", "request#1", 1, addr=0x103, length=2)
        # The whole 8-byte granule is attributed, just as the word tag is.
        origin, _ = prov.origin_at(0x100)
        assert origin.origin_id == 1
        # A later origin overwrites a shared granule (last-writer wins).
        prov.record("file", "/data", 2, addr=0x106, length=1)
        origin, _ = prov.origin_at(0x103)
        assert origin.source == "file"
        # Offsets clamp to the origin's own stream range.
        prov2 = ProvenanceTracker(granularity=8)
        recorded = prov2.record("stdin", "stdin", 0, addr=0x100, length=3)
        _, offset = prov2.origin_at(0x107)
        assert offset == recorded.end - 1

    def test_origins_in_range_orders_by_appearance(self):
        prov = ProvenanceTracker()
        prov.record("network", "request#1", 1, addr=0x108, length=4)
        prov.record("file", "/data", 2, addr=0x100, length=4)
        ordered = prov.origins_in_range(0x100, 16)
        assert [o.source for o in ordered] == ["file", "network"]
        assert prov.origins_in_range(0x100, 0) == []


class TestMetricsRegistry:
    def test_render_lists_every_instrument(self):
        text = render({"cpu.instructions": 1000, "cache.l1.miss_rate": 0.25,
                       "alerts.by_policy.H2": 2}, "title")
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "cpu.instructions" in text and "1,000 instr" in text
        assert "0.25 frac" in text and "alerts.by_policy.H2" in text
        assert len(lines) == 2 + 3
        with pytest.raises(KeyError):
            render({"cpu.instruction": 1})

    def test_collect_machine_aggregates(self):
        machine = build_machine(SOURCE, stdin=bytes(range(32)), tracing=True)
        machine.run()
        flat = collect_machine(machine)
        assert flat["cpu.instructions"] == machine.counters.instructions
        assert flat["cpu.cycles"] == machine.counters.cycles
        assert flat["alerts.total"] == 0
        assert flat["taint.granularity"] == machine.taint_map.granularity
        assert flat["taint.bitmap_population"] >= 0
        assert flat["trace.events.total"] == machine.obs.tracer.total_events
        assert flat["trace.origins"] == len(machine.obs.provenance.origins)


class TestDisassembleWindow:
    def test_window_marks_pc(self):
        machine = build_machine(SOURCE, stdin=b"x" * 32)
        pc = len(machine.program.code) // 2
        lines = disassemble_window(machine.program, pc)
        marked = [line for line in lines if line.startswith("=>")]
        assert len(marked) == 1
        assert f"{pc:6d}:" in marked[0]

    def test_out_of_range_pc_is_empty(self):
        machine = build_machine(SOURCE, stdin=b"x" * 32)
        assert disassemble_window(machine.program, None) == []
        assert disassemble_window(machine.program, -1) == []
        assert disassemble_window(machine.program, 10**9) == []


class TestMachineIntegration:
    def test_tracing_disabled_by_default(self):
        machine = build_machine(SOURCE, stdin=b"x" * 32)
        assert machine.obs is None
        assert machine.cpu.tracer is None
        assert machine.engine.tracer is None
        assert machine.taint_map.provenance is None
        assert machine.taint_map.tracer is None

    def test_traced_run_records_sources_and_syscalls(self):
        machine = build_machine(SOURCE, stdin=bytes(range(32)), tracing=True)
        machine.run()
        tracer = machine.obs.tracer
        sources = tracer.events("taint_source")
        assert sources, "tainted stdin read must emit a source event"
        assert sources[0].source == "stdin"
        assert tracer.counts["syscall"] > 0
        origin = machine.obs.provenance.origins[0]
        assert (origin.source, origin.start) == ("stdin", 0)

    def test_trace_path_exports_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        machine = build_machine(SOURCE, stdin=b"abc" * 8,
                                trace_path=str(path))
        machine.run()
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert records, "run() must export the trace on exit"
        assert all("kind" in r for r in records)
        assert any(r["kind"] == "taint_source" for r in records)


def run_attack(app):
    """Run one Table 2 exploit under record-mode tracing."""
    compiled = compile_protected(app.source, BYTE_LEVEL)
    machine = build_machine(compiled, policy_config=app.policy_config(),
                            engine_mode="record", tracing=True)
    scenario = app.attack(machine) if callable(app.attack) else app.attack
    app.prepare(machine, scenario)
    try:
        machine.run(max_instructions=50_000_000)
    except (SecurityAlert, Fault):
        pass
    return machine


@pytest.fixture(scope="module")
def bftpd_machine():
    return run_attack(BFTPD)


@pytest.fixture(scope="module")
def qwikiwiki_machine():
    return run_attack(QWIKIWIKI)


class TestEndToEndForensics:
    """The crafted overflow's origin chain, asserted end to end."""

    def test_low_level_alert_names_its_origin(self, bftpd_machine):
        machine = bftpd_machine
        assert machine.engine.detected(BFTPD.expected_policy)
        alert = machine.alerts[0]
        assert alert.policy_id == BFTPD.expected_policy  # L2, NaT fault path
        assert alert.pc is not None and alert.pc >= 0
        assert alert.instruction_count > 0
        assert alert.origins, "fault-path alert must carry live origins"
        origin = alert.origins[0]
        assert origin.source == "network"
        assert origin.label.startswith("request#")
        assert origin.start == 0 and origin.length > 1  # coalesced recv loop
        assert "bytes" in origin.describe()

    def test_high_level_alert_names_its_origin(self, qwikiwiki_machine):
        machine = qwikiwiki_machine
        assert machine.engine.detected(QWIKIWIKI.expected_policy)
        alert = next(a for a in machine.alerts
                     if a.policy_id == QWIKIWIKI.expected_policy)  # H2 use point
        assert alert.pc is not None
        assert alert.instruction_count > 0
        origins = alert.origins
        assert origins and all(o.source == "network" for o in origins)
        assert any(o.label.startswith("request#") for o in origins)

    def test_alert_events_reference_origin_ids(self, bftpd_machine):
        event = bftpd_machine.obs.tracer.last("alert")
        alert = bftpd_machine.alerts[0]
        assert event is not None
        assert event.policy_id == alert.policy_id
        assert event.origin_ids == tuple(o.origin_id for o in alert.origins)

    def test_fault_event_precedes_low_level_alert(self, bftpd_machine):
        fault = bftpd_machine.obs.tracer.last("fault")
        assert fault is not None
        assert fault.fault == "NaTConsumptionFault"
        assert fault.pc == bftpd_machine.alerts[0].pc

    def test_incident_report_renders_forensics(self, bftpd_machine):
        text = render_incidents(bftpd_machine)
        alert = bftpd_machine.alerts[0]
        assert f"INCIDENT {alert.policy_id}" in text
        assert f"pc={alert.pc}" in text
        assert "=>" in text  # disassembly window marks the faulting pc
        assert "taint origin chain:" in text
        assert "network" in text and "bytes" in text

    def test_incident_report_to_dict_is_json_safe(self, qwikiwiki_machine):
        reports = qwikiwiki_machine.incident_reports()
        assert reports
        data = reports[0].to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["origins"][0]["source"] == "network"

    def test_clean_machine_renders_no_incidents(self):
        machine = build_machine(SOURCE, stdin=b"x" * 32)
        assert render_incidents(machine) == "no security alerts recorded"
        assert machine.incident_reports() == []


class TestDisabledTracerFastPath:
    """tracing=False must not perturb the simulation at all."""

    @staticmethod
    def run_gzip(**kwargs):
        bench = BENCHMARKS["gzip"]
        machine = build_machine(
            bench.source("test"), PERF_OPTIONS["byte"],
            policy_config=spec_policy(safe_input=False),
            files={"/data": bench.make_input("test")}, **kwargs)
        machine.run(max_instructions=50_000_000)
        return machine

    COUNTERS = ("instructions", "cycles", "issue_cycles", "stall_cycles",
                "branch_penalty_cycles", "io_cycles", "loads", "stores",
                "branches_taken")

    def test_spec_counters_bit_identical(self):
        default = self.run_gzip()
        untraced = self.run_gzip(tracing=False)
        traced = self.run_gzip(tracing=True)
        assert default.obs is None and untraced.obs is None
        assert traced.obs is not None and len(traced.obs.tracer) > 0
        for name in self.COUNTERS:
            base = getattr(default.counters, name)
            assert getattr(untraced.counters, name) == base, name
            # Tracing observes the run; it must never change it.
            assert getattr(traced.counters, name) == base, name
        assert default.read_global("result") == \
            untraced.read_global("result") == traced.read_global("result")
