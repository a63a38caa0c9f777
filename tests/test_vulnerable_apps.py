"""Security evaluation of the Table 2 applications plus Fig. 1."""

import functools

import pytest

from repro.apps.vulnerable import FIGURE1_APP, TABLE2_APPS, unprotected_config
from repro.compiler.instrument import BYTE_LEVEL, UNINSTRUMENTED, WORD_LEVEL
from repro.core.shift import compile_protected
from repro.harness import paper

APPS_BY_NAME = {app.name: app for app in TABLE2_APPS}


@functools.lru_cache(maxsize=None)
def build(app, options):
    """One build of ``app`` per options, shared by the tests that run it."""
    return compile_protected(app.source, options)


@pytest.mark.parametrize("app", TABLE2_APPS, ids=[a.name for a in TABLE2_APPS])
class TestTable2Apps:
    def test_exploit_succeeds_unprotected(self, app):
        machine = app.run(build(app, UNINSTRUMENTED),
                          unprotected_config(), app.attack)
        assert app.compromised(machine), f"{app.name}: exploit must work unprotected"

    def test_benign_unprotected_is_not_compromised(self, app):
        machine = app.run(build(app, UNINSTRUMENTED),
                          unprotected_config(), app.benign)
        assert not app.compromised(machine)

    def test_detected_at_byte_level(self, app):
        machine = app.run(build(app, BYTE_LEVEL),
                          app.policy_config(), app.attack)
        assert machine.alerts, f"{app.name}: attack must be detected"
        assert machine.alerts[0].policy_id == app.expected_policy

    def test_no_false_positive_at_byte_level(self, app):
        machine = app.run(build(app, BYTE_LEVEL),
                          app.policy_config(), app.benign)
        assert not machine.alerts, f"{app.name}: benign run raised an alert"


@pytest.mark.parametrize("name", ["qwikiwiki", "bftpd", "scry"])
class TestWordLevelDetection:
    """Word-level spot checks (the full matrix runs in the benchmark)."""

    def test_detected_at_word_level(self, name):
        app = APPS_BY_NAME[name]
        machine = app.run(build(app, WORD_LEVEL),
                          app.policy_config(), app.attack)
        assert machine.alerts
        assert machine.alerts[0].policy_id == app.expected_policy

    def test_no_false_positive_at_word_level(self, name):
        app = APPS_BY_NAME[name]
        machine = app.run(build(app, WORD_LEVEL),
                          app.policy_config(), app.benign)
        assert not machine.alerts


class TestEvaluateApp:
    def test_full_evaluation_of_tar(self):
        section = paper.table2([APPS_BY_NAME["tar"]])
        row = section["apps"][0]
        assert row["attack_succeeds_unprotected"]
        assert row["detected_byte"] and row["detected_word"]
        assert not (row["false_positive_byte"] or row["false_positive_word"])
        assert row["alert_policy_byte"] == "H1"
        assert section["all_detected"] and section["no_false_positives"]

    def test_each_build_compiled_once(self, monkeypatch):
        """One app's row runs five scenarios on three builds."""
        builds = []

        def counting(source, options):
            builds.append(options)
            return compile_protected(source, options)

        monkeypatch.setattr(paper, "compile_protected", counting)
        paper.table2([APPS_BY_NAME["tar"]])
        assert builds == [UNINSTRUMENTED, BYTE_LEVEL, WORD_LEVEL]


class TestFigure1QwikSmtpd:
    """The paper's running example: overflow -> tainted localip."""

    def test_attack_relays_mail_unprotected(self):
        app = FIGURE1_APP
        machine = app.run(build(app, UNINSTRUMENTED),
                          unprotected_config(), app.attack)
        assert machine.read_global("relayed") == 1

    def test_benign_relay_denied(self):
        app = FIGURE1_APP
        machine = app.run(build(app, UNINSTRUMENTED),
                          unprotected_config(), app.benign)
        assert machine.read_global("relayed") == 0

    def test_shift_detects_tainted_localip(self):
        app = FIGURE1_APP
        machine = app.run(build(app, BYTE_LEVEL),
                          app.policy_config(), app.attack)
        assert machine.read_global("relayed") == 0
        assert "ALERT" in machine.console.text
        # The overflow taint is visible in the bitmap at localip.
        assert machine.taint_map.is_tainted(machine.address_of("localip"))

    def test_shift_benign_run_clean(self):
        app = FIGURE1_APP
        machine = app.run(build(app, BYTE_LEVEL),
                          app.policy_config(), app.benign)
        assert "ALERT" not in machine.console.text
        assert not machine.taint_map.is_tainted(machine.address_of("localip"))

    def test_overflow_reaches_localip(self):
        """The memory layout reproduces Fig. 1: clientHELO overflows
        directly into localip."""
        app = FIGURE1_APP
        machine = app.run(build(app, UNINSTRUMENTED),
                          unprotected_config(), app.attack)
        assert machine.read_string("localip") == b"10.7.7.7"
