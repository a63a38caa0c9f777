"""Machine configuration: device costs, cache and issue configs and the
tracking mode."""

import pytest

from repro.apps.specstore import SPECSTORE_SOURCE
from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine, compile_protected
from repro.cpu.perf import IssueConfig
from repro.fleet.driver import FleetConfig
from repro.harness.runners import specstore_policy
from repro.harness.specbench import SPECSTORE_OPTIONS
from repro.mem.cache import CacheConfig, HierarchyConfig
from repro.runtime.devices import DeviceCosts
from repro.runtime.machine import Machine, MachineSpec

SOURCE = """
native int read(int fd, char *buf, int n);
char buf[256];
int main() {
    int n = read(0, buf, 200);
    int s = 0;
    for (int i = 0; i < n; i++) s += buf[i];
    return s & 0xff;
}
"""

STDIN = bytes(range(200))


def run(**kwargs):
    machine = build_machine(SOURCE, stdin=STDIN, **kwargs)
    machine.exit_code = machine.run()
    return machine


class TestDeviceCosts:
    def test_costlier_devices_raise_io_cycles(self):
        cheap = run(costs=DeviceCosts(file_base=100, file_byte=0.1))
        pricey = run(costs=DeviceCosts(file_base=100_000, file_byte=50))
        assert pricey.counters.io_cycles > cheap.counters.io_cycles * 10
        assert pricey.exit_code == cheap.exit_code  # results unchanged


class TestIssueConfig:
    def test_narrow_machine_is_slower(self):
        wide = run(issue_config=IssueConfig(width=6))
        narrow = run(issue_config=IssueConfig(width=1, mem_ports=1))
        assert narrow.counters.compute_cycles > wide.counters.compute_cycles
        assert narrow.exit_code == wide.exit_code

    def test_branch_penalty_visible(self):
        cheap = run(issue_config=IssueConfig(branch_penalty=0))
        costly = run(issue_config=IssueConfig(branch_penalty=10))
        assert costly.counters.branch_penalty_cycles > \
            cheap.counters.branch_penalty_cycles


class TestCacheConfig:
    def test_tiny_cache_stalls_more(self):
        big = run()
        tiny = run(cache_config=HierarchyConfig(
            l1=CacheConfig(256, 1, line_bytes=64),
            l2=CacheConfig(1024, 2, line_bytes=64),
            l3=CacheConfig(4096, 4, line_bytes=64),
        ))
        assert tiny.counters.stall_cycles >= big.counters.stall_cycles
        assert tiny.exit_code == big.exit_code


class TestDeterminism:
    def test_identical_runs_identical_cycles(self):
        first = run()
        second = run()
        assert first.counters.cycles == second.counters.cycles
        assert first.counters.instructions == second.counters.instructions


class TestAdaptiveMode:
    """The tracking mode is one MachineSpec field; a mode that cannot
    take effect raises instead of building a machine without it."""

    BYTE = ShiftOptions(granularity=1)

    def test_speculation_on_a_plain_build_raises(self):
        with pytest.raises(ValueError, match="dual-version"):
            build_machine(SOURCE, self.BYTE, speculative=True)

    def test_speculation_without_switching_raises(self):
        with pytest.raises(ValueError):
            build_machine(SOURCE, self.BYTE, adaptive=True,
                          adaptive_switching=False, speculative=True)
        dual = compile_protected(SOURCE, self.BYTE, adaptive=True)
        with pytest.raises(ValueError, match="adaptive_switching"):
            build_machine(dual, adaptive_switching=False, speculative=True)

    def test_unknown_mode_raises_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="unknown adaptive mode"):
            FleetConfig(adaptive="bogus")

    @pytest.mark.parametrize("mode", ["on", "track", "speculate"])
    def test_dual_modes_need_the_dual_layout(self, mode):
        plain = compile_protected(SOURCE, self.BYTE)
        with pytest.raises(ValueError, match="dual-version"):
            Machine(plain, MachineSpec(adaptive=mode))
        with pytest.raises(ValueError, match="dual-version"):
            build_machine(plain, adaptive=mode)

    def test_a_dual_program_needs_a_dual_mode(self):
        dual = compile_protected(SOURCE, self.BYTE, adaptive=True)
        with pytest.raises(ValueError, match="plain"):
            build_machine(dual, adaptive="none")

    def test_defaults_map_to_the_program_layout(self):
        plain = build_machine(SOURCE, self.BYTE)
        assert plain.adaptive is None and plain.spec is None
        dual = build_machine(compile_protected(SOURCE, self.BYTE,
                                               adaptive=True))
        assert dual.adaptive is not None and dual.spec is None


class TestSpecValues:
    """A misspelled engine, engine mode or web variant raises when the
    spec is built, in the process that builds it."""

    def test_unknown_engine_mode_raises_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="unknown engine mode"):
            FleetConfig(engine_mode="bogus")
        with pytest.raises(ValueError, match="unknown engine mode"):
            MachineSpec(engine_mode="alert")

    def test_unknown_engine_raises_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            FleetConfig(engine="bogus")

    def test_unknown_variant_raises_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="unknown web variant"):
            FleetConfig(variant="bogus")

    def test_policy_engine_rejects_an_unknown_mode(self):
        from repro.taint.bitmap import TaintMap
        from repro.mem.memory import SparseMemory
        from repro.taint.engine import PolicyEngine
        from repro.taint.policy import PolicyConfig

        with pytest.raises(ValueError, match="unknown engine mode 'log'"):
            PolicyEngine(PolicyConfig(), TaintMap(SparseMemory()), mode="log")


class TestStoreSpeculateArms:
    """The benchmark's store-speculate arms, built with exactly the
    keywords ``bench/workloads.py``'s ``StoreSpeculate.serve`` passes."""

    @pytest.fixture(scope="class")
    def programs(self):
        return {"dual": compile_protected(SPECSTORE_SOURCE, SPECSTORE_OPTIONS,
                                          adaptive=True),
                "plain": compile_protected(SPECSTORE_SOURCE,
                                           ShiftOptions(mode="none"))}

    @pytest.mark.parametrize("mode, dual, controller, speculation", [
        ("none", False, False, False),
        ("track", True, False, False),
        ("speculate", True, True, True),
    ])
    def test_arm(self, programs, mode, dual, controller, speculation):
        machine = build_machine(
            programs["plain"] if mode == "none" else programs["dual"],
            policy_config=specstore_policy(), files={},
            engine_mode="record", tracing=mode != "none",
            adaptive_switching=mode == "speculate",
            speculative=mode == "speculate")
        assert (machine.compiled.adaptive is not None) == dual
        assert (machine.adaptive is not None) == controller
        assert (machine.spec is not None) == speculation
