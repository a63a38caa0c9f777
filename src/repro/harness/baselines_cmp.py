"""Related-work comparison: SHIFT vs LIFT-style DBT vs emulation.

The paper positions SHIFT's 2.81X/2.27X against LIFT's 4.6X and
interpretation-based systems' much larger slowdowns (section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.spec import BENCHMARKS
from repro.baselines.interp import InterpreterModel
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable


@dataclass
class BaselineRow:
    """Per-benchmark slowdowns of SHIFT vs the baselines."""
    benchmark: str
    shift_byte: float
    shift_word: float
    lift: float
    interpreter: float


@dataclass
class BaselineResult:
    """All comparison rows for one scale."""
    rows: List[BaselineRow]
    scale: str

    def mean(self, field: str) -> float:
        """Geometric mean of one column."""
        return geomean(getattr(r, field) for r in self.rows)


def run_baseline_comparison(table: SpecTable,
                            benchmarks: Optional[Sequence[str]] = None,
                            ) -> BaselineResult:
    """SHIFT, LIFT-style and interpreter slowdowns, from the SPEC table."""
    model = InterpreterModel()
    rows = [
        BaselineRow(
            benchmark=name,
            shift_byte=table.slowdown(name, PERF_OPTIONS["byte"]),
            shift_word=table.slowdown(name, PERF_OPTIONS["word"]),
            lift=table.slowdown(name, PERF_OPTIONS["lift"]),
            interpreter=model.slowdown(
                table.run(name, PERF_OPTIONS["none"]).counters))
        for name in benchmarks or BENCHMARKS
    ]
    return BaselineResult(rows=rows, scale=table.scale)


def format_baselines(result: BaselineResult) -> str:
    """Render the related-work comparison table."""
    body = [
        [r.benchmark, r.shift_byte, r.shift_word, r.lift, r.interpreter]
        for r in result.rows
    ]
    body.append(["geo.mean", result.mean("shift_byte"), result.mean("shift_word"),
                 result.mean("lift"), result.mean("interpreter")])
    return format_table(
        ["benchmark", "SHIFT byte", "SHIFT word", "LIFT-style", "interpreter"],
        body,
        title=(f"Related-work comparison (scale={result.scale}; paper context: "
               "SHIFT 2.81X/2.27X, LIFT 4.6X, emulators far slower)"),
    )
