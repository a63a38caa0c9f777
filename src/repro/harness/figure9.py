"""Figure 9: breakdown of the remaining instrumentation overhead.

The paper splits the per-benchmark slowdown into tag-address
*computation* versus bitmap *memory access*, separately for load and
store instrumentation, and finds that computation dominates (blamed on
Itanium's unimplemented-bits translation) and that load instrumentation
outweighs store instrumentation (programs execute more loads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.spec import BENCHMARKS
from repro.harness.formatting import format_table
from repro.harness.runners import PERF_OPTIONS, SpecTable
from repro.isa.instruction import ROLE_TAG_COMPUTE, ROLE_TAG_MEM


@dataclass
class Figure9Row:
    """Overhead components normalised to the uninstrumented runtime."""

    benchmark: str
    level: str
    load_compute: float
    load_mem: float
    store_compute: float
    store_mem: float
    other_instrumentation: float

    @property
    def computation_total(self) -> float:
        """Tag-computation share (loads + stores)."""
        return self.load_compute + self.store_compute

    @property
    def memory_total(self) -> float:
        """Bitmap-access share (loads + stores)."""
        return self.load_mem + self.store_mem


@dataclass
class Figure9Result:
    """All Figure 9 rows for one scale."""
    rows: List[Figure9Row]
    scale: str


def run_figure9(table: SpecTable,
                benchmarks: Optional[Sequence[str]] = None,
                levels: Sequence[str] = ("byte", "word")) -> Figure9Result:
    """The overhead breakdown (Figure 9), from the shared SPEC table."""
    rows: List[Figure9Row] = []
    for name in benchmarks or BENCHMARKS:
        for level in levels:
            base, run = table.measure(name, PERF_OPTIONS[level])
            counters = run.counters
            norm = base.cycles

            def cost(role: str, origin: str) -> float:
                pair = counters.pair_costs.get((role, origin))
                return (pair.cycles / norm) if pair else 0.0

            accounted = {
                (ROLE_TAG_COMPUTE, "load"), (ROLE_TAG_MEM, "load"),
                (ROLE_TAG_COMPUTE, "store"), (ROLE_TAG_MEM, "store"),
            }
            other = sum(
                c.cycles for (r, o), c in counters.pair_costs.items()
                if r is not None and (r, o) not in accounted
            ) / norm
            rows.append(Figure9Row(
                benchmark=name,
                level=level,
                load_compute=cost(ROLE_TAG_COMPUTE, "load"),
                load_mem=cost(ROLE_TAG_MEM, "load"),
                store_compute=cost(ROLE_TAG_COMPUTE, "store"),
                store_mem=cost(ROLE_TAG_MEM, "store"),
                other_instrumentation=other,
            ))
    return Figure9Result(rows=rows, scale=table.scale)


def format_figure9(result: Figure9Result) -> str:
    """Render the Figure 9 table."""
    body = [
        [row.benchmark, row.level,
         row.load_compute, row.load_mem,
         row.store_compute, row.store_mem,
         row.other_instrumentation]
        for row in result.rows
    ]
    return format_table(
        ["benchmark", "level", "ld compute", "ld mem", "st compute",
         "st mem", "other instr."],
        body,
        title=(f"Figure 9: overhead breakdown, fraction of baseline runtime "
               f"(scale={result.scale}; paper: computation >> memory access, "
               "loads >> stores)"),
    )
