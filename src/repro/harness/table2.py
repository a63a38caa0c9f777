"""Table 2: security evaluation against real-world attack analogues.

For every vulnerable application the harness runs four configurations:

1. *unprotected attack* — compiled without SHIFT, policies off: the
   exploit must succeed (the vulnerability is real);
2. *protected benign* (byte and word level) — normal inputs must run
   with zero alerts (no false positives);
3. *protected attack* (byte and word level) — the exploit must be
   detected by the expected policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.vulnerable import TABLE2_APPS, VulnerableApp
from repro.compiler.instrument import (BYTE_LEVEL, UNINSTRUMENTED,
                                       WORD_LEVEL, ShiftOptions)
from repro.core.shift import build_machine, compile_protected
from repro.cpu.faults import Fault
from repro.harness.formatting import format_table
from repro.runtime.machine import Machine
from repro.taint.engine import SecurityAlert
from repro.taint.policy import PolicyConfig


def unprotected_config() -> PolicyConfig:
    """No taint sources, no policies: the stock vulnerable program."""
    config = PolicyConfig()
    for source in list(config.tainted_sources):
        config.tainted_sources[source] = False
    for policy in list(config.enabled):
        config.enabled[policy] = False
    return config


@dataclass
class AppEvaluation:
    """Outcome of the four runs for one application."""

    app: VulnerableApp
    attack_succeeds_unprotected: bool
    detected_byte: bool
    detected_word: bool
    alert_policy_byte: Optional[str]
    alert_policy_word: Optional[str]
    false_positive_byte: bool
    false_positive_word: bool

    @property
    def detected(self) -> bool:
        """True when both granularities detected the attack."""
        return self.detected_byte and self.detected_word

    @property
    def clean(self) -> bool:
        """True when no benign run raised an alert."""
        return not (self.false_positive_byte or self.false_positive_word)


def _run_scenario(app: VulnerableApp, options: ShiftOptions,
                  config: PolicyConfig, scenario) -> Machine:
    compiled = compile_protected(app.source, options)
    machine = build_machine(compiled, policy_config=config, engine_mode="record")
    resolved = scenario(machine) if callable(scenario) else scenario
    app.prepare(machine, resolved)
    try:
        machine.run(max_instructions=50_000_000)
    except SecurityAlert:
        pass
    except Fault:
        # In record mode the policy engine logs the alert and the
        # underlying NaT-consumption fault still terminates the guest
        # (the hardware fault is the detection mechanism for L1-L3).
        pass
    return machine


def evaluate_app(app: VulnerableApp) -> AppEvaluation:
    # 1. The attack against the unprotected program must succeed.
    """Run the four configurations for one vulnerable app."""
    unprotected = _run_scenario(app, UNINSTRUMENTED, unprotected_config(), app.attack)
    succeeded = bool(app.compromised and app.compromised(unprotected))

    results = {}
    for level, options in (("byte", BYTE_LEVEL), ("word", WORD_LEVEL)):
        benign = _run_scenario(app, options, app.policy_config(), app.benign)
        attack = _run_scenario(app, options, app.policy_config(), app.attack)
        results[level] = {
            "false_positive": bool(benign.alerts),
            "detected": bool(attack.alerts),
            "policy": attack.alerts[0].policy_id if attack.alerts else None,
        }
    return AppEvaluation(
        app=app,
        attack_succeeds_unprotected=succeeded,
        detected_byte=results["byte"]["detected"],
        detected_word=results["word"]["detected"],
        alert_policy_byte=results["byte"]["policy"],
        alert_policy_word=results["word"]["policy"],
        false_positive_byte=results["byte"]["false_positive"],
        false_positive_word=results["word"]["false_positive"],
    )


@dataclass
class Table2Result:
    """All Table 2 evaluations."""
    evaluations: List[AppEvaluation]

    @property
    def all_detected(self) -> bool:
        """True when every attack was detected."""
        return all(e.detected for e in self.evaluations)

    @property
    def no_false_positives(self) -> bool:
        """True when every benign run was clean."""
        return all(e.clean for e in self.evaluations)


def run_table2(apps: Sequence[VulnerableApp] = TABLE2_APPS) -> Table2Result:
    """Evaluate every Table 2 application."""
    return Table2Result(evaluations=[evaluate_app(app) for app in apps])


def format_table2(result: Table2Result) -> str:
    """Render the Table 2 table."""
    rows = []
    for ev in result.evaluations:
        app = ev.app
        policies = "+".join(app.detection_policies) or "low-level"
        rows.append([
            app.name, app.cve, app.language, app.attack_type,
            f"{policies} (hit: {ev.alert_policy_byte})",
            "yes" if ev.attack_succeeds_unprotected else "NO",
            "yes" if ev.detected else "NO",
            "none" if ev.clean else "FP!",
        ])
    table = format_table(
        ["program", "CVE", "lang", "attack", "policies", "exploit works",
         "detected?", "false pos."],
        rows,
        title="Table 2: security evaluation (paper: all detected, no false positives)",
    )
    summary = (
        f"\nall attacks detected: {result.all_detected}; "
        f"false positives: {not result.no_false_positives}"
    )
    return table + summary
