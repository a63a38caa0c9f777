"""Guest scripting under DIFT: MiniScript assembler + VM end-to-end.

The interpreter-indirection proof (ROADMAP item 5): request bytes →
the MiniC VM's operand stack and string arena → the ``sql`` /
``html_output`` use points, with taint and origins intact the whole
way.  The VM is itself a guest program compiled and instrumented by
the repo's own pipeline, so nothing here is special-cased for it.
"""

import json

import pytest

from repro.apps.guestvm import (
    GUESTVM_KV_SOURCE,
    GUESTVM_TMPL_SOURCE,
    KV_SERVICE_SCRIPT,
    TEMPLATE_SERVICE_SCRIPT,
    kv_get_request,
    kv_pget_request,
    kv_set_request,
    sql_injection_request,
    template_request,
    xss_request,
)
from repro.guestvm.asm import (
    MAX_CONSTS,
    MiniScriptError,
    Op,
    assemble,
    disassemble,
)
from repro.compiler.instrument import BYTE_LEVEL
from repro.harness.guestbench import (
    GUEST_WATCHDOG,
    detection_campaign,
    fleet_smoke,
)
from repro.fleet.driver import FleetConfig, build_worker
from repro.harness.runners import guest_backend_policy, guestvm_policy


# ---------------------------------------------------------------------------
# Assembler
# ---------------------------------------------------------------------------


class TestAssembler:
    def test_container_magic_and_counts(self):
        out = assemble('let x = "hi";\nemit(x + "!");')
        assert out.blob[:4] == b"MSB1"
        assert out.blob[4] == 1            # version
        assert out.blob[5] == len(out.consts)
        assert b"hi" in out.blob and b"!" in out.blob

    def test_consts_are_deduplicated(self):
        out = assemble('emit("a"); emit("a"); emit("b");')
        assert out.consts.count(b"a") == 1

    def test_entry_runs_before_defs(self):
        out = assemble('render();\ndef render { emit("x"); }')
        # top-level code ends with HALT before any def body
        assert out.code[out.entry_length - 1] == Op.HALT
        assert len(out.funcs) == 1
        assert out.funcs["render"] >= out.entry_length

    def test_forward_reference_backpatched(self):
        out = assemble('helper();\ndef helper { emit("later"); }')
        # CALL operand must point at the (single) def
        idx = out.code.index(Op.CALL)
        assert out.code[idx + 1] == 0

    def test_disassemble_lists_consts_and_ops(self):
        text = disassemble(assemble('emit("hello" + arg);').blob)
        assert "b'hello'" in text
        assert "EMIT" in text and "ARG" in text and "HALT" in text

    def test_opcode_values_are_stable(self):
        # The MiniC VM dispatches on these numbers; they are ABI.
        assert Op.HALT == 0 and Op.PUSHI == 1 and Op.PUSHC == 2
        assert Op.SQL == 30 and Op.SQLP == 31 and Op.EMIT == 32
        assert Op.CALL == 34 and Op.RET == 35

    def test_undeclared_variable_rejected(self):
        with pytest.raises(MiniScriptError, match="undeclared"):
            assemble("emit(nope);")

    def test_double_declaration_rejected(self):
        with pytest.raises(MiniScriptError, match="already declared"):
            assemble("let a = 1;\nlet a = 2;")

    def test_unterminated_string_reports_line(self):
        with pytest.raises(MiniScriptError, match="line 2"):
            assemble('let a = 1;\nlet b = "oops;')

    def test_undefined_call_rejected(self):
        with pytest.raises(MiniScriptError, match="undefined def"):
            assemble("missing();")

    def test_nested_def_rejected(self):
        with pytest.raises(MiniScriptError, match="top level"):
            assemble("if 1 { def f { emit(\"x\"); } }")

    def test_const_pool_limit_enforced(self):
        body = "".join(f'emit("s{i}");\n' for i in range(MAX_CONSTS + 1))
        with pytest.raises(MiniScriptError, match="too many string"):
            assemble(body)

    def test_service_scripts_assemble(self):
        for script in (KV_SERVICE_SCRIPT, TEMPLATE_SERVICE_SCRIPT):
            out = assemble(script)
            assert out.blob[:4] == b"MSB1"
            assert len(out.blob) < 2000


class TestDecoderErrors:
    """Bad MiniScript source or a damaged MSB1 container raises
    MiniScriptError, never a raw error and never a silent success."""

    BLOB = assemble('emit("hi" + arg);').blob

    def test_superscript_digit_rejected(self):
        with pytest.raises(MiniScriptError, match="unexpected character"):
            assemble("emit(\u00b9);")

    def test_trailing_superscript_digit_rejected(self):
        with pytest.raises(MiniScriptError, match="unexpected character"):
            assemble("emit(1\u00b2);")

    def test_non_ascii_digit_is_not_a_number(self):
        # Arabic-Indic three used to compile exactly like emit(3);.
        with pytest.raises(MiniScriptError, match="unexpected character"):
            assemble("emit(\u0663);")

    def test_oversized_literal_rejected(self):
        with pytest.raises(MiniScriptError, match="32 bits"):
            assemble("emit(2147483648);")

    def test_non_latin1_string_rejected(self):
        with pytest.raises(MiniScriptError, match="latin-1"):
            assemble('emit("\u20ac");')

    def test_magic_alone_rejected(self):
        with pytest.raises(MiniScriptError, match="header"):
            disassemble(b"MSB1")

    def test_truncated_header_rejected(self):
        with pytest.raises(MiniScriptError, match="header"):
            disassemble(self.BLOB[:9])

    def test_const_count_past_end_rejected(self):
        blob = bytearray(self.BLOB)
        blob[5] = 200
        with pytest.raises(MiniScriptError, match="truncated"):
            disassemble(bytes(blob))

    def test_unknown_opcode_rejected(self):
        blob = bytearray(self.BLOB)
        blob[-1] = 0xFF  # the trailing HALT
        with pytest.raises(MiniScriptError, match="unknown opcode 0xff"):
            disassemble(bytes(blob))

    def test_short_code_section_rejected(self):
        with pytest.raises(MiniScriptError, match="code"):
            disassemble(self.BLOB[:-1])

    def test_operand_cut_off_by_code_length_rejected(self):
        blob = assemble("emit(5);").blob  # no consts, no funcs
        assert blob[10] == Op.PUSHI
        cut = blob[:8] + (3).to_bytes(2, "little") + blob[10:13]
        with pytest.raises(MiniScriptError, match="missing its operand"):
            disassemble(cut)


# ---------------------------------------------------------------------------
# VM end-to-end under SHIFT
# ---------------------------------------------------------------------------


def run_guest(variant, requests, **kwargs):
    kwargs.setdefault("policy_config", guestvm_policy())
    kwargs.setdefault("engine_mode", "record")
    kwargs.setdefault("tracing", True)
    machine = build_worker(FleetConfig(variant=variant, options=BYTE_LEVEL,
                                       **kwargs))
    for request in requests:
        machine.net.add_request(request)
    machine.run(max_instructions=500_000_000)
    return machine


class TestKvService:
    @pytest.fixture(scope="class")
    def machine(self):
        return run_guest("guest-kv", [
            kv_set_request("user1", "alice"),
            kv_get_request("user1"),
            kv_pget_request("user1"),
            kv_get_request("missing"),
            sql_injection_request(),
            kv_pget_request("x' OR '1'='1"),
        ])

    def test_clean_requests_served(self, machine):
        out = [bytes(c.outbound) for c in machine.net.completed]
        assert out[0] == b"OK"
        assert out[1] == b"VALUE alice"
        assert out[2] == b"VALUE alice"
        assert out[3] == b"VALUE "

    def test_queries_reach_the_sql_sink(self, machine):
        assert "SELECT v FROM kv WHERE k='user1'" in machine.executed_queries
        # parameterized control: only the placeholder text is executed
        assert "SELECT v FROM kv WHERE k=?" in machine.executed_queries

    def test_h3_fires_only_on_injection(self, machine):
        assert [a.policy_id for a in machine.alerts] == ["H3"]
        assert "metachar" in machine.alerts[0].message

    def test_origins_reach_request_bytes(self, machine):
        # request #5 (1-based) is the injection
        origins = [o.describe() for o in machine.alerts[0].origins]
        assert any("network 'request#5'" in o for o in origins)

    def test_parameterized_control_is_silent(self, machine):
        # the SAME hostile key went through PGET (request 6): no alert
        assert len(machine.alerts) == 1


class TestTemplateService:
    @pytest.fixture(scope="class")
    def machine(self):
        return run_guest("guest-tmpl", [
            template_request("world"),
            template_request("<b>bold</b>"),
            xss_request(),
            template_request("<script>alert(1)</script>", escaped=True),
        ])

    def test_pages_rendered_through_the_vm(self, machine):
        out = [bytes(c.outbound) for c in machine.net.completed]
        assert out[0] == b"<html><body><p>Hello world</p></body></html>"
        assert b"<b>bold</b>" in out[1]

    def test_escape_opcode_neutralizes_payload(self, machine):
        escaped = bytes(machine.net.completed[3].outbound)
        assert b"<script" not in escaped
        assert b"&lt;script&gt;" in escaped

    def test_h5_fires_only_on_raw_script(self, machine):
        assert [a.policy_id for a in machine.alerts] == ["H5"]
        origins = [o.describe() for o in machine.alerts[0].origins]
        assert any("network 'request#3'" in o for o in origins)

    def test_tainted_markup_without_script_is_clean(self, machine):
        # request 2 emitted tainted "<b>bold</b>" unescaped: no alert
        assert len(machine.alerts) == 1


class TestRecoverMode:
    def test_attack_quarantined_clean_served(self):
        machine = run_guest("guest-kv", [
            kv_set_request("a", "1"),
            sql_injection_request(),
            kv_get_request("a"),
        ], engine_mode="recover", recover_watchdog=GUEST_WATCHDOG)
        assert len(machine.net.quarantined) == 1
        assert [bytes(c.outbound) for c in machine.net.completed] == [
            b"OK", b"VALUE 1"]
        incidents = machine.resil.incidents
        assert len(incidents) == 1
        assert incidents[0].reason == "alert"
        assert incidents[0].policy_id == "H3"
        assert incidents[0].request_index == 2

    def test_xss_quarantined(self):
        machine = run_guest("guest-tmpl", [
            template_request("ok"),
            xss_request(),
        ], engine_mode="recover", recover_watchdog=GUEST_WATCHDOG)
        assert len(machine.net.quarantined) == 1
        assert machine.resil.incidents[0].policy_id == "H5"


class TestAdaptiveMode:
    def test_clean_scripts_requiesce_and_switch(self):
        machine = run_guest("guest-tmpl", [
            template_request("plain"),
            template_request("also", escaped=True),
            template_request("third"),
        ], adaptive="on")
        assert not machine.alerts
        assert machine.adaptive.switches_to_fast >= 1
        assert machine.adaptive.switches_to_track >= 1

    def test_adaptive_alerts_match_track(self):
        requests = [template_request("a"), xss_request(),
                    template_request("b")]
        sig = {}
        for mode in ("on", "track"):
            machine = run_guest("guest-tmpl", requests, adaptive=mode)
            sig[mode] = [(a.policy_id, a.message, a.context)
                         for a in machine.alerts]
        assert sig["on"] == sig["track"]
        assert [s[0] for s in sig["on"]] == ["H5"]


class TestFleetWire:
    def test_wire_tags_are_load_bearing(self):
        entry = fleet_smoke(seed=3)
        # tagged attack quarantined; untagged twin + clean both served
        assert entry["exact"], entry
        assert entry["served"] == 3 and entry["quarantined"] == 1
        assert entry["alerts"][0]["policy_id"] == "H5"
        assert entry["digest_stable"]

    def test_interior_policy_trusts_plain_ingress(self):
        # direct proof at machine level: backend policy + raw bytes
        machine = run_guest("guest-tmpl", [xss_request()],
                            policy_config=guest_backend_policy())
        assert not machine.alerts


class TestGuestbench:
    def test_detection_campaign_gates(self):
        entry = detection_campaign("kv", seed=99, clean=3, attacks=2)
        assert entry["exact"], entry
        assert entry["detection_rate"] == 1.0
        assert entry["origins_ok"] and entry["digest_stable"]
        assert entry["clean_false_alerts"] == 0

    def test_report_is_json_serialisable(self):
        entry = detection_campaign("template", seed=7, clean=2, attacks=1)
        assert json.loads(json.dumps(entry))["service"] == "template"


class TestSourcesRegistered:
    def test_vm_sources_embed_the_bytecode(self):
        for source in (GUESTVM_KV_SOURCE, GUESTVM_TMPL_SOURCE):
            assert "char code[" in source
            assert "vm_run" in source
        # 77, 83, 66, 49 == "MSB1"
        assert "77, 83, 66, 49" in GUESTVM_KV_SOURCE

    def test_variants_present(self):
        from repro.harness.runners import WEB_VARIANTS

        assert WEB_VARIANTS["guest-kv"] == GUESTVM_KV_SOURCE
        assert WEB_VARIANTS["guest-tmpl"] == GUESTVM_TMPL_SOURCE
