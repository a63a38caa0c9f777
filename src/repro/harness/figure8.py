"""Figure 8: impact of the proposed architectural enhancements.

Paper section 6.3: adding set/clear-NaT instructions cuts the average
slowdown by 16 percentage-points at both granularities; adding the
NaT-aware compare as well cuts 49 (byte) / 47 (word) points in total.
The per-benchmark reduction tracks the amount of tainted data: 173%/166%
for gcc, only 2%/5% for mcf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.spec import BENCHMARKS
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable


@dataclass
class Figure8Row:
    """Slowdowns of one benchmark across enhancement levels."""
    benchmark: str
    level: str  # 'byte' or 'word'
    unsafe: float  # baseline SHIFT slowdown
    set_clear: float  # + set/clear-NaT instructions
    both: float  # + NaT-aware compare too

    @property
    def set_clear_reduction_points(self) -> float:
        """Slowdown reduction in percentage points (paper's metric)."""
        return (self.unsafe - self.set_clear) * 100.0

    @property
    def both_reduction_points(self) -> float:
        """Slowdown points recovered by both enhancements."""
        return (self.unsafe - self.both) * 100.0


@dataclass
class Figure8Result:
    """All Figure 8 rows for one scale."""
    rows: List[Figure8Row]
    scale: str

    def level_rows(self, level: str) -> List[Figure8Row]:
        """Rows of one granularity."""
        return [row for row in self.rows if row.level == level]

    def mean_reduction(self, level: str, which: str) -> float:
        """Average points recovered by one enhancement."""
        rows = self.level_rows(level)
        base = geomean(r.unsafe for r in rows)
        enh = geomean((r.set_clear if which == "set_clear" else r.both) for r in rows)
        return (base - enh) * 100.0


def run_figure8(table: SpecTable,
                benchmarks: Optional[Sequence[str]] = None) -> Figure8Result:
    """The enhancement matrix (Figure 8), from the shared SPEC table."""
    rows = [
        Figure8Row(
            benchmark=name, level=level,
            unsafe=table.slowdown(name, PERF_OPTIONS[level]),
            set_clear=table.slowdown(name, PERF_OPTIONS[f"{level}-set/clear"]),
            both=table.slowdown(name, PERF_OPTIONS[f"{level}-both"]))
        for name in benchmarks or BENCHMARKS for level in ("byte", "word")
    ]
    return Figure8Result(rows=rows, scale=table.scale)


def format_figure8(result: Figure8Result) -> str:
    """Render the Figure 8 table."""
    body = []
    for level in ("byte", "word"):
        for row in result.level_rows(level):
            body.append([
                row.benchmark, row.level, row.unsafe, row.set_clear, row.both,
                f"{row.set_clear_reduction_points:.0f}",
                f"{row.both_reduction_points:.0f}",
            ])
        body.append([
            "geo.mean", level,
            geomean(r.unsafe for r in result.level_rows(level)),
            geomean(r.set_clear for r in result.level_rows(level)),
            geomean(r.both for r in result.level_rows(level)),
            f"{result.mean_reduction(level, 'set_clear'):.0f}",
            f"{result.mean_reduction(level, 'both'):.0f}",
        ])
    return format_table(
        ["benchmark", "level", "unsafe", "+set/clear", "+both",
         "red(s/c) pts", "red(both) pts"],
        body,
        title=(f"Figure 8: architectural enhancements (scale={result.scale}; "
               "paper: set/clear -16pts, both -49/-47pts)"),
    )
