"""SPEC-like kernel tests: correctness across instrumentation modes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.spec import BENCHMARKS
from repro.core.shift import build_machine
from repro.harness.runners import PERF_OPTIONS, spec_policy
from repro.taint.policy import PolicyConfig


def run_kernel(bench, options, scale="test", safe=False):
    machine = build_machine(
        bench.source(scale), options,
        policy_config=spec_policy(safe_input=safe),
        files={"/data": bench.make_input(scale)},
    )
    exit_code = machine.run(max_instructions=50_000_000)
    return machine, exit_code


class TestCatalogue:
    def test_eight_benchmarks_in_figure7_order(self):
        assert list(BENCHMARKS) == [
            "gzip", "gcc", "crafty", "bzip2", "vpr", "mcf", "parser", "twolf",
        ]

    def test_spec_names(self):
        assert BENCHMARKS["gzip"].spec_name == "164.gzip"
        assert BENCHMARKS["mcf"].spec_name == "181.mcf"

    def test_sources_have_no_unreplaced_placeholders(self):
        for bench in BENCHMARKS.values():
            for scale in ("test", "ref"):
                assert "@" not in bench.source(scale)

    def test_inputs_deterministic(self):
        for bench in BENCHMARKS.values():
            assert bench.make_input("test") == bench.make_input("test")

    def test_inputs_identical_across_string_hash_seeds(self):
        # Inputs must not depend on the per-process string-hash salt.
        script = (
            "import hashlib\n"
            "from repro.apps.spec import BENCHMARKS\n"
            "for b in BENCHMARKS.values():\n"
            "    for scale in ('test', 'ref'):\n"
            "        print(b.name, scale,\n"
            "              hashlib.sha256(b.make_input(scale)).hexdigest())\n")
        src = Path(__file__).resolve().parents[1] / "src"

        def digests(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(src))
            return subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout

        first = digests("1")
        assert first.count("\n") == 2 * len(BENCHMARKS)
        assert first == digests("2")

    def test_unknown_placeholder_rejected(self):
        from repro.apps.spec.common import SpecBenchmark
        bench = SpecBenchmark(
            name="x", spec_name="0.x", description="",
            source_template="int main() { return @NOPE@; }",
            params={"test": {}}, input_maker=lambda rng, p: b"",
        )
        with pytest.raises(ValueError):
            bench.source("test")


@pytest.mark.parametrize("name", list(BENCHMARKS))
class TestKernelCorrectness:
    def test_runs_and_modes_agree(self, name):
        bench = BENCHMARKS[name]
        base, code = run_kernel(bench, PERF_OPTIONS["none"])
        checksum = base.read_global("result")
        assert checksum != 0, "kernel must produce a nontrivial result"
        for config in ("byte", "word"):
            machine, other_code = run_kernel(bench, PERF_OPTIONS[config])
            assert machine.read_global("result") == checksum, config
            assert other_code == code

    def test_no_alerts_during_perf_runs(self, name):
        bench = BENCHMARKS[name]
        machine, _ = run_kernel(bench, PERF_OPTIONS["byte"])
        assert not machine.alerts


class TestEnhancedModesAgree:
    @pytest.mark.parametrize("config", ["byte-set/clear", "byte-both",
                                        "word-set/clear", "word-both", "lift"])
    def test_gzip_checksum_stable(self, config):
        bench = BENCHMARKS["gzip"]
        base, _ = run_kernel(bench, PERF_OPTIONS["none"])
        enhanced, _ = run_kernel(bench, PERF_OPTIONS[config])
        assert enhanced.read_global("result") == base.read_global("result")


class TestPerformanceShape:
    def test_instrumentation_slows_down(self):
        bench = BENCHMARKS["bzip2"]
        base, _ = run_kernel(bench, PERF_OPTIONS["none"])
        byte, _ = run_kernel(bench, PERF_OPTIONS["byte"])
        assert byte.counters.cycles > base.counters.cycles * 1.3

    def test_byte_slower_than_word(self):
        bench = BENCHMARKS["parser"]
        base, _ = run_kernel(bench, PERF_OPTIONS["none"])
        byte, _ = run_kernel(bench, PERF_OPTIONS["byte"])
        word, _ = run_kernel(bench, PERF_OPTIONS["word"])
        assert byte.counters.cycles > word.counters.cycles

    def test_mcf_is_memory_bound(self):
        bench = BENCHMARKS["mcf"]
        base, _ = run_kernel(bench, PERF_OPTIONS["none"])
        assert base.counters.stall_cycles > 0.3 * base.counters.compute_cycles

    def test_mcf_overhead_lower_than_parser(self):
        def slowdown(name):
            bench = BENCHMARKS[name]
            base, _ = run_kernel(bench, PERF_OPTIONS["none"])
            byte, _ = run_kernel(bench, PERF_OPTIONS["byte"])
            return byte.counters.cycles / base.counters.cycles
        assert slowdown("mcf") < slowdown("parser")

    def test_safe_input_not_slower_than_unsafe(self):
        bench = BENCHMARKS["gzip"]
        unsafe, _ = run_kernel(bench, PERF_OPTIONS["byte"], safe=False)
        safe, _ = run_kernel(bench, PERF_OPTIONS["byte"], safe=True)
        assert safe.counters.cycles <= unsafe.counters.cycles * 1.02
