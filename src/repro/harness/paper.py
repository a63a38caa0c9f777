"""The paper suite: Tables 1-3, Figs. 6-9, the baselines and the ablations.

:func:`run_suite` measures everything the paper's evaluation prints and
returns it as one report; :func:`render` turns a report back into the
``results/*.txt`` tables through each experiment's ``format_*`` and
chart functions.  Every SPEC number comes from one
:class:`~repro.harness.runners.SpecTable`, so each distinct
configuration runs once and every slowdown passes the one checksum
guard.  Quick mode runs the SPEC kernels and Table 3 at test scale,
full mode at ref; Tables 1-2, Fig. 6 and the issue-width ablation are
the same in both (the ablation runs at test scale, in the suite's table
in quick mode and in a table of its own, which ``spec_runs`` does not
count, in full mode).  The report's boolean fields are the paper's
shape claims, which the suite's gate rows check::

    PYTHONPATH=src python -m repro.harness.suites paper [--quick] [--gate]
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Dict, List

from repro.apps.vulnerable import TABLE2_APPS
from repro.harness import (ablations, baselines_cmp, charts, figure6, figure7,
                           figure8, figure9, table1, table2, table3)
from repro.harness.formatting import geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable

#: Web-server requests per Figure 6 point.
FIGURE6_REQUESTS = 25
#: Kernels of the compare-pruning check.
PRUNING_KERNELS = ("gzip", "crafty", "mcf")

_FIGURE7_BARS = ("byte_unsafe", "byte_safe", "word_unsafe", "word_safe")
_BASELINE_COLUMNS = ("shift_byte", "shift_word", "lift", "interpreter")


def _dump(row, **extra) -> Dict:
    """A result row's fields, plus derived values and claim checks."""
    return {**{f.name: getattr(row, f.name) for f in fields(row)}, **extra}


def _load(cls, entry: Dict):
    """Rebuild a result row from its report entry."""
    return cls(**{f.name: entry[f.name] for f in fields(cls)})


def _table2(result: table2.Table2Result) -> Dict:
    return {
        "programs": [ev.app.name for ev in result.evaluations],
        "apps": [_dump(ev, app=ev.app.name,
                       hit_expected=(ev.alert_policy_byte
                                     == ev.app.expected_policy))
                 for ev in result.evaluations],
        "all_detected": result.all_detected,
        "no_false_positives": result.no_false_positives,
    }


def _table3(rows: List[table3.Table3Row]) -> Dict:
    return {"apps": [row.name for row in rows],
            "libc": _dump(rows[0]),
            "spec": [_dump(row) for row in rows[1:]]}


def _figure6(result: figure6.Figure6Result) -> Dict:
    by_size = {row.file_kb: row for row in result.rows}
    return {
        "requests": result.requests,
        "rows": [_dump(row,
                       byte_overhead_percent=row.byte_overhead_percent,
                       word_overhead_percent=row.word_overhead_percent,
                       word_le_byte=row.word_latency <= row.byte_latency * 1.01)
                 for row in result.rows],
        "mean_overhead_percent": result.mean_overhead_percent,
        "small_file_worst": (by_size[4].byte_overhead_percent
                             >= by_size[512].byte_overhead_percent),
    }


def _figure7(result: figure7.Figure7Result) -> Dict:
    worst = max(result.rows, key=lambda row: row.byte_unsafe)
    cheapest = min(row.byte_unsafe for row in result.rows)
    return {
        "benchmarks": [row.benchmark for row in result.rows],
        "rows": [_dump(row,
                       byte_ge_word=row.byte_unsafe >= row.word_unsafe * 0.98,
                       unsafe_ge_safe=row.byte_unsafe >= row.byte_safe * 0.98)
                 for row in result.rows],
        "mean": {bar: result.mean(bar) for bar in _FIGURE7_BARS},
        "mcf_cheapest": next(row.byte_unsafe for row in result.rows
                             if row.benchmark == "mcf") == cheapest,
        "gcc_worst": worst.benchmark == "gcc",
    }


def _figure8(result: figure8.Figure8Result) -> Dict:
    levels = {}
    for level in ("byte", "word"):
        rows = {row.benchmark: row for row in result.level_rows(level)}
        mcf = rows["mcf"].both_reduction_points
        best = max(row.both_reduction_points for row in rows.values())
        levels[level] = {
            **{bar: geomean(getattr(row, bar) for row in rows.values())
               for bar in ("unsafe", "set_clear", "both")},
            "set_clear_reduction": result.mean_reduction(level, "set_clear"),
            "both_reduction": result.mean_reduction(level, "both"),
            "mcf_both_points": mcf,
            "top_moves_3x_mcf": best > 3 * max(mcf, 1.0),
        }
    return {
        "rows": [_dump(row,
                       set_clear_reduction_points=row.set_clear_reduction_points,
                       both_reduction_points=row.both_reduction_points,
                       set_clear_no_worse=row.set_clear <= row.unsafe * 1.02,
                       both_no_worse=row.both <= row.set_clear * 1.02)
                 for row in result.rows],
        "levels": levels,
    }


def _figure9(result: figure9.Figure9Result) -> Dict:
    total = len(result.rows)
    compute_wins = sum(row.computation_total > row.memory_total
                       for row in result.rows)
    loads_win = sum(row.load_compute + row.load_mem
                    >= row.store_compute + row.store_mem
                    for row in result.rows)
    return {
        "rows": [_dump(row) for row in result.rows],
        "compute_wins": compute_wins,
        "loads_win": loads_win,
        # Computation beats bitmap access essentially everywhere; loads
        # beat stores for most kernels (mcf's store misses aside).
        "compute_dominates": compute_wins >= total - 1,
        "loads_dominate": loads_win >= total - 3,
    }


def _baselines(result: baselines_cmp.BaselineResult) -> Dict:
    mean = {column: result.mean(column) for column in _BASELINE_COLUMNS}
    return {
        "rows": [_dump(row) for row in result.rows],
        "mean": mean,
        "lift_clear_win": mean["lift"] > mean["shift_byte"] * 1.2,
    }


def _ablations(result: ablations.AblationResult) -> Dict:
    mean = {label: result.mean(label) for label in ablations.ABLATION_OPTIONS}
    return {
        "rows": [_dump(row) for row in result.rows],
        "mean": mean,
        "global_natgen_no_worse": (mean["natgen global"]
                                   <= mean["byte (baseline)"] * 1.01),
    }


def _width(rows: List[ablations.WidthRow]) -> Dict:
    by_width = {row.width: row.slowdown for row in rows}
    return {"rows": [_dump(row, slowdown=row.slowdown) for row in rows],
            "narrow_costs_more": by_width[1] > by_width[6]}


def _pruning(table: SpecTable) -> Dict:
    """Statically clean compares skip relaxation; it never costs cycles."""
    pruned = ablations.ABLATION_OPTIONS["pruned compares"][0]
    kernels = {}
    for name in PRUNING_KERNELS:
        _, plain_run = table.measure(name, PERF_OPTIONS["byte"])
        _, pruned_run = table.measure(name, pruned)
        kernels[name] = {
            "byte_cycles": plain_run.cycles,
            "pruned_cycles": pruned_run.cycles,
            "never_hurts": pruned_run.cycles <= plain_run.cycles * 1.01,
        }
    return kernels


def run_suite(quick: bool) -> Dict:
    """Measure every table and figure; returns the report body."""
    scale = "test" if quick else "ref"
    table = SpecTable(scale)
    report = {
        "scale": scale,
        "table1": {"policy_ids": [p.policy_id for p in table1.run_table1()]},
        "table2": _table2(table2.run_table2()),
        "table3": _table3(table3.run_table3(scale=scale)),
        "figure6": _figure6(figure6.run_figure6(requests=FIGURE6_REQUESTS)),
        "figure7": _figure7(figure7.run_figure7(table)),
        "figure8": _figure8(figure8.run_figure8(table)),
        "figure9": _figure9(figure9.run_figure9(table)),
        "baselines": _baselines(baselines_cmp.run_baseline_comparison(table)),
        "ablations": _ablations(ablations.run_ablations(table)),
        "ablation_width": _width(ablations.run_width_ablation(
            table if quick else SpecTable("test"))),
        "pruning": _pruning(table),
        "spec_runs": len(table.runs),
    }
    print(f"{report['spec_runs']} SPEC runs at {scale} scale", flush=True)
    return report


def render(report: Dict) -> Dict[str, str]:
    """The text of each ``results/<name>.txt``, from a paper report."""
    scale = report["scale"]
    apps = {app.name: app for app in TABLE2_APPS}

    def rows(section: str, cls) -> List:
        return [_load(cls, entry) for entry in report[section]["rows"]]

    fig7 = figure7.Figure7Result(rows("figure7", figure7.Figure7Row), scale)
    fig8 = figure8.Figure8Result(rows("figure8", figure8.Figure8Row), scale)
    fig9 = figure9.Figure9Result(rows("figure9", figure9.Figure9Row), scale)
    return {
        "table1": table1.format_table1_output(),
        "table2": table2.format_table2(table2.Table2Result([
            replace(_load(table2.AppEvaluation, entry), app=apps[entry["app"]])
            for entry in report["table2"]["apps"]])),
        "table3": table3.format_table3([
            _load(table3.Table3Row, entry) for entry in
            [report["table3"]["libc"], *report["table3"]["spec"]]]),
        "figure6": figure6.format_figure6(figure6.Figure6Result(
            rows("figure6", figure6.Figure6Row),
            report["figure6"]["requests"])),
        "figure7": (figure7.format_figure7(fig7) + "\n\n"
                    + charts.figure7_chart(fig7)),
        "figure8": (figure8.format_figure8(fig8) + "\n\n"
                    + charts.figure8_chart(fig8, "byte")),
        "figure9": (figure9.format_figure9(fig9) + "\n\n"
                    + charts.figure9_chart(fig9, "byte")),
        "baselines": baselines_cmp.format_baselines(
            baselines_cmp.BaselineResult(
                rows("baselines", baselines_cmp.BaselineRow), scale)),
        "ablations": ablations.format_ablations(ablations.AblationResult(
            rows("ablations", ablations.AblationRow), scale)),
        "ablation_width": ablations.format_width_ablation(
            rows("ablation_width", ablations.WidthRow)),
    }
