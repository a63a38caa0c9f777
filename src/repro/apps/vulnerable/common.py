"""Shared structure for the Table 2 vulnerable applications.

Each entry models one of the paper's real-world CVEs: a MiniC analogue
of the vulnerable program, a benign input scenario (used to check for
false positives) and an attack scenario (crafted exploit input), plus a
predicate that checks whether the attack actually *succeeded* when run
without SHIFT protection — so the harness can show attacks work on the
unprotected program and are detected on the protected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine, compile_protected
from repro.cpu.faults import Fault
from repro.runtime.machine import Machine
from repro.taint.engine import SecurityAlert
from repro.taint.policy import PolicyConfig


@dataclass(frozen=True)
class Scenario:
    """One run's inputs: stdin, filesystem contents, network requests."""

    stdin: bytes = b""
    files: Tuple[Tuple[str, bytes], ...] = ()
    requests: Tuple[bytes, ...] = ()


@dataclass(frozen=True)
class VulnerableApp:
    """One row of the paper's Table 2."""

    name: str
    cve: str
    language: str  # language of the original program
    attack_type: str
    #: High-level policies to enable on top of the default low-level ones.
    detection_policies: Tuple[str, ...]
    #: Policy expected to raise the alert.
    expected_policy: str
    source: str
    benign: Scenario
    attack: Scenario
    document_root: str = "/www"
    #: Given an *unprotected* machine after the attack run, did the
    #: exploit achieve its goal?
    compromised: Optional[Callable[[Machine], bool]] = None

    def policy_config(self) -> PolicyConfig:
        """Low-level defaults plus this app's high-level policies."""
        config = PolicyConfig()
        config.enable(*self.detection_policies)
        config.settings.document_root = self.document_root
        return config

    def prepare(self, machine: Machine, scenario: Scenario) -> None:
        """Install a scenario's inputs into a loaded machine."""
        machine.os.stdin = scenario.stdin
        for path, data in scenario.files:
            machine.fs.write(path, data)
        for request in scenario.requests:
            machine.net.add_request(request)

    def run(self, options: ShiftOptions, policy_config: PolicyConfig,
            scenario: Union[Scenario, Callable[[Machine], Scenario]],
            ) -> Machine:
        """Build this app in record mode, run one scenario, return the
        machine; read the outcome off ``machine.alerts``.

        ``scenario`` is a :class:`Scenario` or a callable that takes the
        loaded machine and returns one.  An alert or fault that ends the
        run is swallowed: in record mode the engine logs the alert and
        the NaT-consumption fault still ends the guest (the hardware
        fault is the detection mechanism for L1-L3).
        """
        machine = build_machine(compile_protected(self.source, options),
                                policy_config=policy_config,
                                engine_mode="record")
        self.prepare(machine,
                     scenario(machine) if callable(scenario) else scenario)
        try:
            machine.run(max_instructions=50_000_000)
        except (SecurityAlert, Fault):
            pass
        return machine


def unprotected_config() -> PolicyConfig:
    """No taint sources, no policies: the stock vulnerable program."""
    config = PolicyConfig()
    for source in config.tainted_sources:
        config.tainted_sources[source] = False
    for policy in config.enabled:
        config.enabled[policy] = False
    return config
