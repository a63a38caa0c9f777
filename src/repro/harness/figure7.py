"""Figure 7: SPEC-INT2000 slowdown under SHIFT.

Four bars per benchmark: byte/word-level tracking with the input data
tagged unsafe (tainted) or safe.  Paper results: byte-unsafe average
2.81X (range 1.32X-4.73X), word-unsafe average 2.27X (1.34X-3.80X);
gcc is the worst case, mcf the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.spec import BENCHMARKS
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable


@dataclass
class Figure7Row:
    """The four Figure 7 bars for one benchmark."""
    benchmark: str
    byte_unsafe: float
    byte_safe: float
    word_unsafe: float
    word_safe: float


@dataclass
class Figure7Result:
    """All Figure 7 rows for one scale."""
    rows: List[Figure7Row]
    scale: str

    def mean(self, field: str) -> float:
        """Geometric mean of one bar across benchmarks."""
        return geomean(getattr(row, field) for row in self.rows)


def run_figure7(table: SpecTable,
                benchmarks: Optional[Sequence[str]] = None) -> Figure7Result:
    """The Figure 7 slowdown matrix, from the shared SPEC table."""
    rows = [
        Figure7Row(benchmark=name, **{
            f"{level}_{'safe' if safe else 'unsafe'}":
                table.slowdown(name, PERF_OPTIONS[level], safe)
            for safe in (False, True) for level in ("byte", "word")})
        for name in benchmarks or BENCHMARKS
    ]
    return Figure7Result(rows=rows, scale=table.scale)


def format_figure7(result: Figure7Result) -> str:
    """Render the Figure 7 table."""
    body = [
        [row.benchmark, row.byte_unsafe, row.byte_safe,
         row.word_unsafe, row.word_safe]
        for row in result.rows
    ]
    body.append([
        "geo.mean",
        result.mean("byte_unsafe"), result.mean("byte_safe"),
        result.mean("word_unsafe"), result.mean("word_safe"),
    ])
    return format_table(
        ["benchmark", "byte-unsafe", "byte-safe", "word-unsafe", "word-safe"],
        body,
        title=(f"Figure 7: SPEC slowdown vs uninstrumented (scale={result.scale}; "
               "paper: byte 2.81X avg, word 2.27X avg)"),
    )
