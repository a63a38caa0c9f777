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
from repro.cpu.perf import PerfCounters
from repro.runtime.libc_src import LIBC_SOURCE
from repro.runtime.machine import Machine, MachineSpec
from repro.taint.engine import AlertRecord, SecurityAlert


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
    include_libc: bool = True,
    adaptive: Optional[str] = None,
    files: Optional[Dict[str, bytes]] = None,
    stdin: bytes = b"",
    machine_id: Optional[str] = None,
    adaptive_switching: bool = True,
    speculative: bool = False,
    **fields,
) -> Machine:
    """Compile (if needed) and load a guest into a ready Machine.

    ``fields`` are :class:`MachineSpec` fields.  ``adaptive`` is the
    spec's tracking mode; compiling from source, every mode but
    ``"none"`` builds the dual-version layout.  Left unset, the mode
    follows the program's layout and two switches, the spelling
    ``bench/workloads.py`` uses: a plain program runs ``"none"``, a
    dual-version one ``"on"``, ``"track"`` with ``adaptive_switching``
    off, or ``"speculate"`` with ``speculative`` on.  A combination
    that cannot take effect raises ValueError.
    """
    if adaptive is not None and (speculative or not adaptive_switching):
        raise ValueError("pass adaptive= or the adaptive_switching= and "
                         "speculative= switches, not both")
    if isinstance(sources, CompiledProgram):
        compiled = sources
    else:
        compiled = compile_protected(sources, options, include_libc=include_libc,
                                     adaptive=adaptive not in (None, "none"))
    if adaptive is None:
        dual = compiled.adaptive is not None
        if speculative and not (dual and adaptive_switching):
            raise ValueError("speculative=True needs a dual-version program "
                             "and adaptive_switching=True")
        adaptive = ("none" if not dual else "speculate" if speculative
                    else "on" if adaptive_switching else "track")
    return Machine(compiled, MachineSpec(adaptive=adaptive, **fields),
                   files=files, stdin=stdin, machine_id=machine_id)


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
