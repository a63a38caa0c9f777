"""Ablations of the design choices DESIGN.md calls out.

Not in the paper's figures, but each isolates one claim the paper makes
in prose:

* **NaT-source generation granularity** (section 4.4): the authors found
  per-function generation far cheaper than per-use, and a kept global
  source cheaper still — motivating the set/clear-NaT instructions.
* **Tag-address translation** (section 6.4): Itanium's region/
  unimplemented-bits combine makes the tag computation "more costly than
  [on] traditional x86 machines".
* **Compare relaxation** (section 4.1): what the NaT-clearing dance
  around compares costs in total.
* **Issue width**: how much instrumentation cost hides in EPIC slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.compiler.instrument import ShiftOptions
from repro.cpu.perf import IssueConfig
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable
from repro.runtime.machine import MachineSpec

#: Instrumentation variants measured with tainted (unsafe) input.
#: "no compare relax" runs with *safe* input: without relaxation a NaT
#: operand would clear both compare predicates and corrupt control flow
#: — which is exactly why SHIFT cannot omit it on tainted data.
ABLATION_OPTIONS: Dict[str, tuple] = {
    "byte (baseline)": (PERF_OPTIONS["byte"], False),
    "natgen per use": (ShiftOptions(granularity=1, pointer_policy="permissive",
                                    natgen="use"), False),
    "natgen global": (ShiftOptions(granularity=1, pointer_policy="permissive",
                                   natgen="global"), False),
    "x86-style tag xlat": (ShiftOptions(granularity=1, pointer_policy="permissive",
                                        fast_tag_translation=True), False),
    "pruned compares": (ShiftOptions(granularity=1, pointer_policy="permissive",
                                     prune_clean_compares=True), False),
    "byte (safe input)": (PERF_OPTIONS["byte"], True),
    "no relax (safe)": (ShiftOptions(granularity=1, pointer_policy="permissive",
                                     relax_compares=False), True),
}


@dataclass
class AblationRow:
    """Slowdowns of one benchmark across the ablation variants."""
    benchmark: str
    slowdowns: Dict[str, float]


@dataclass
class AblationResult:
    """All ablation rows for one scale."""
    rows: List[AblationRow]
    scale: str

    def mean(self, label: str) -> float:
        """Geometric-mean slowdown of one variant."""
        return geomean(row.slowdowns[label] for row in self.rows)


def run_ablations(table: SpecTable,
                  benchmarks: Sequence[str] = ("gzip", "gcc", "mcf"),
                  ) -> AblationResult:
    """Every ablation variant on the chosen benchmarks."""
    rows = [
        AblationRow(benchmark=name, slowdowns={
            label: table.slowdown(name, options, safe)
            for label, (options, safe) in ABLATION_OPTIONS.items()})
        for name in benchmarks
    ]
    return AblationResult(rows=rows, scale=table.scale)


def format_ablations(result: AblationResult) -> str:
    """Render the ablation table."""
    labels = list(ABLATION_OPTIONS)
    body = [[row.benchmark] + [row.slowdowns[label] for label in labels]
            for row in result.rows]
    body.append(["geo.mean"] + [result.mean(label) for label in labels])
    return format_table(
        ["benchmark"] + labels, body,
        title=f"Ablations: byte-level slowdown under design variants (scale={result.scale})",
    )


@dataclass
class WidthRow:
    """Slowdown at one issue width."""
    width: int
    baseline_cycles: float
    shift_cycles: float

    @property
    def slowdown(self) -> float:
        """Instrumented over baseline cycles."""
        return self.shift_cycles / self.baseline_cycles


def run_width_ablation(table: SpecTable, benchmark: str = "gzip",
                       widths: Sequence[int] = (1, 2, 6)) -> List[WidthRow]:
    """Instrumentation overhead vs machine issue width.

    Narrow machines cannot hide instrumentation in empty slots, so the
    relative slowdown grows as width shrinks.  Width 6 is the default
    machine, so that row reuses the table's byte-level run.
    """
    rows: List[WidthRow] = []
    for width in widths:
        spec = MachineSpec(
            issue_config=IssueConfig(width=width, mem_ports=min(2, width)))
        base, run = table.measure(benchmark, PERF_OPTIONS["byte"], spec=spec)
        rows.append(WidthRow(width=width, baseline_cycles=base.cycles,
                             shift_cycles=run.cycles))
    return rows


def format_width_ablation(rows: List[WidthRow], benchmark: str = "gzip") -> str:
    """Render the issue-width table."""
    return format_table(
        ["issue width", "slowdown"],
        [[row.width, row.slowdown] for row in rows],
        title=f"Issue-width ablation on {benchmark}: EPIC slack absorbs instrumentation",
    )
