"""ASCII bar charts for the regenerated figures.

The paper presents Figures 6-9 as grouped bar charts; :func:`bar_chart`
renders the same data as fixed-width text so `results/` artefacts are
readable at a glance without plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Glyph per series, cycled.
_GLYPHS = "#=*o+x"


def bar_chart(
    groups: Sequence[Tuple[str, Dict[str, float]]],
    *,
    title: str = "",
    unit: str = "X",
    width: int = 48,
    baseline: Optional[float] = 1.0,
) -> str:
    """Render grouped horizontal bars.

    ``groups`` is a sequence of ``(group_label, {series: value})``; all
    series share one scale.  ``baseline`` draws a reference tick (the
    1.0X line for slowdown charts; pass None to disable).
    """
    series_names: List[str] = []
    for _, values in groups:
        for name in values:
            if name not in series_names:
                series_names.append(name)
    peak = max((v for _, values in groups for v in values.values()), default=1.0)
    scale = width / peak if peak > 0 else 1.0
    label_width = max((len(label) for label, _ in groups), default=0)
    series_width = max((len(name) for name in series_names), default=0)

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {name}" for i, name in enumerate(series_names)
    )
    lines.append(f"{'':{label_width}}  {legend}")
    for label, values in groups:
        first = True
        for i, name in enumerate(series_names):
            if name not in values:
                continue
            value = values[name]
            bar = _GLYPHS[i % len(_GLYPHS)] * max(1, round(value * scale))
            row_label = label if first else ""
            lines.append(
                f"{row_label:{label_width}}  {name:{series_width}} "
                f"|{bar} {value:.2f}{unit}"
            )
            first = False
        lines.append("")
    if baseline is not None and 0 < baseline <= peak:
        tick = round(baseline * scale)
        ruler = " " * (label_width + series_width + 4) + " " * tick + f"^ {baseline:g}{unit}"
        lines.append(ruler)
    return "\n".join(lines).rstrip() + "\n"

