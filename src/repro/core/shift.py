"""High-level SHIFT API: compile, protect and run guest programs.

This is the facade a downstream user starts from::

    from repro.core import build_machine, shift_options
    from repro.taint import parse_policy_config

    options = shift_options(granularity="byte")
    policy = parse_policy_config(POLICY_TEXT)
    machine = build_machine(APP_SOURCE, options=options, policy_config=policy,
                            stdin=b"some input")
    result = run_machine(machine)
    print(result.exit_code, result.alerts)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from repro.compiler.instrument import ShiftOptions, UNINSTRUMENTED
from repro.compiler.pipeline import CompiledProgram, compile_program
from repro.cpu.faults import Fault
from repro.cpu.perf import IssueConfig, PerfCounters
from repro.mem.cache import HierarchyConfig
from repro.runtime.devices import DeviceCosts
from repro.runtime.libc_src import LIBC_SOURCE
from repro.runtime.machine import Machine
from repro.taint.engine import AlertRecord, SecurityAlert
from repro.taint.policy import PolicyConfig


def compile_protected(
    sources: Union[str, Iterable[str]],
    options: ShiftOptions = UNINSTRUMENTED,
    include_libc: bool = True,
    adaptive: bool = False,
) -> CompiledProgram:
    """Compile MiniC sources (plus the instrumentable libc) with SHIFT.

    ``adaptive=True`` emits the dual-version (track + fast) layout used
    by :mod:`repro.adaptive` for on-demand tracking.
    """
    if isinstance(sources, str):
        sources = [sources]
    all_sources = ([LIBC_SOURCE] if include_libc else []) + list(sources)
    return compile_program(all_sources, options, adaptive=adaptive)


def build_machine(
    sources: Union[str, Iterable[str], CompiledProgram],
    options: ShiftOptions = UNINSTRUMENTED,
    *,
    policy_config: Optional[PolicyConfig] = None,
    include_libc: bool = True,
    engine_mode: str = "raise",
    files: Optional[Dict[str, bytes]] = None,
    stdin: bytes = b"",
    costs: Optional[DeviceCosts] = None,
    cache_config: Optional[HierarchyConfig] = None,
    issue_config: Optional[IssueConfig] = None,
    thread_quantum: int = 800,
    serialize_bitmap: bool = False,
    tracing: bool = False,
    trace_path: Optional[str] = None,
    trace_capacity: Optional[int] = None,
    engine: str = "predecoded",
    recover_watchdog: Optional[int] = None,
    machine_id: Optional[str] = None,
    net_capacity: Optional[int] = None,
    adaptive: bool = False,
    adaptive_switching: bool = True,
    speculative: bool = False,
) -> Machine:
    """Compile (if needed) and load a guest into a ready Machine.

    ``adaptive=True`` compiles a dual-version program; pre-compiled
    programs carrying an adaptive layout get a controller regardless.
    ``adaptive_switching=False`` loads a dual-version program but pins
    it in track mode (the differential baseline for testing).
    ``speculative=True`` adds the repro.spec controller on top of the
    adaptive one (fast-path execution under taint-range guards).
    """
    if isinstance(sources, CompiledProgram):
        compiled = sources
    else:
        compiled = compile_protected(sources, options, include_libc=include_libc,
                                     adaptive=adaptive)
    return Machine(
        compiled,
        policy_config=policy_config,
        engine_mode=engine_mode,
        files=files,
        stdin=stdin,
        costs=costs,
        cache_config=cache_config,
        issue_config=issue_config,
        thread_quantum=thread_quantum,
        serialize_bitmap=serialize_bitmap,
        tracing=tracing,
        trace_path=trace_path,
        trace_capacity=trace_capacity,
        engine=engine,
        recover_watchdog=recover_watchdog,
        machine_id=machine_id,
        net_capacity=net_capacity,
        adaptive=adaptive_switching,
        speculative=speculative,
    )


@dataclass
class RunResult:
    """Outcome of one guest run."""

    exit_code: Optional[int]
    alerts: List[AlertRecord]
    counters: PerfCounters
    console: str
    detected: bool = False
    fault: Optional[str] = None

    @property
    def cycles(self) -> float:
        """Total simulated cycles of the run."""
        return self.counters.cycles


def run_machine(machine: Machine, max_instructions: int = 200_000_000) -> RunResult:
    """Run a machine, folding security alerts into the result."""
    exit_code: Optional[int] = None
    detected = False
    fault_text: Optional[str] = None
    try:
        exit_code = machine.run(max_instructions=max_instructions)
    except SecurityAlert:
        detected = True
    except Fault as fault:
        fault_text = str(fault)
    return RunResult(
        exit_code=exit_code,
        alerts=list(machine.alerts),
        counters=machine.counters,
        console=machine.console.text,
        detected=detected or bool(machine.alerts),
        fault=fault_text,
    )
