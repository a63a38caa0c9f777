"""The example scripts must run cleanly end to end."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "DETECTED -> H3" in out
        assert "completed normally" in out

    def test_policy_tuning(self, capsys):
        out = run_example("policy_tuning", capsys)
        assert "DETECTED H1" in out
        assert "allowed" in out
        assert "Directory Traversal" in out  # Table 1 printed

    def test_arch_enhancements(self, capsys):
        out = run_example("arch_enhancements", capsys)
        assert "181.mcf" in out
        assert "stock Itanium" in out

    @pytest.mark.slow
    def test_attack_detection(self, capsys):
        out = run_example("attack_detection", capsys)
        assert "exploit works" in out
        assert "attack defeated" in out
        assert "All attacks detected" in out

    @pytest.mark.slow
    def test_webserver_demo(self, capsys):
        out = run_example("webserver_demo", capsys)
        assert "SECURITY ALERT H2" in out
        assert "overhead" in out

    def test_threads_demo(self, capsys):
        out = run_example("threads_demo", capsys)
        assert "LOST to the torn RMW" in out
        assert "preserved" in out

    def test_struct_corruption(self, capsys):
        out = run_example("struct_corruption", capsys)
        assert "DETECTED -> L2" in out
        assert "delivered ok" in out

    def test_adaptive_server(self, capsys):
        out = run_example("adaptive_server", capsys)
        assert "adaptive (on-demand)" in out
        assert "x faster" in out
        assert "Same alert, same policy, same pc" in out

    def test_fleet_demo(self, capsys):
        out = run_example("fleet_demo", capsys)
        assert "quarantined request" in out
        assert "bit-identical!" in out
        assert "the wire transport is load-bearing" in out

    def test_resilient_server(self, capsys):
        out = run_example("resilient_server", capsys)
        assert "Server exited normally after serving 4 requests" in out
        assert "policy alert [L1]" in out and "policy alert [H2]" in out
        assert "watchdog (instruction budget)" in out

    def test_script_server(self, capsys):
        out = run_example("script_server", capsys)
        assert "stack bytecode" in out
        assert "[H3] SECURITY ALERT" in out
        assert "network 'request#3'" in out
        assert "attack caught, clean traffic served" in out
