"""ASCII table rendering and small statistics helpers."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's average for slowdowns/overheads)."""
    values = [v for v in values]
    if not values:
        return float("nan")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio_quartiles(numerators: Sequence[float],
                    denominators: Sequence[float]
                    ) -> Tuple[float, float, float]:
    """(q1, median, q3) of the pairwise ratios ``numerator / denominator``."""
    q1, median, q3 = statistics.quantiles(
        [n / d for n, d in zip(numerators, denominators)],
        n=4, method="inclusive")
    return q1, median, q3


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table with a separator under the header."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


