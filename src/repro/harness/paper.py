"""The paper suite: Tables 1-3, Figs. 6-9, the baselines and the ablations.

Each report section has two functions here: one measures the section
straight into the dict the report holds (``figure7(table)``), and one
renders the section's ``results/<name>.txt`` text from that dict alone
(``render_figure7(section, scale)``), so a report read back from JSON
renders the same tables.  :func:`run_suite` measures every section and
:func:`render` renders a whole report.  Every SPEC number comes from
one :class:`~repro.harness.runners.SpecTable`, so each distinct
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

from operator import itemgetter
from typing import Dict, List, Sequence

from repro.apps.spec import BENCHMARKS
from repro.apps.vulnerable import (TABLE2_APPS, VulnerableApp,
                                   unprotected_config)
from repro.apps.webserver import FILE_SIZES_KB
from repro.baselines.interp import InterpreterModel
from repro.compiler.codesize import instructions_to_bytes
from repro.compiler.instrument import (BYTE_LEVEL, UNINSTRUMENTED,
                                       WORD_LEVEL, ShiftOptions)
from repro.compiler.parser import parse
from repro.compiler.pipeline import compile_program
from repro.cpu.perf import IssueConfig
from repro.harness.charts import bar_chart
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable, run_webserver
from repro.isa.instruction import ROLE_TAG_COMPUTE, ROLE_TAG_MEM
from repro.runtime.libc_src import LIBC_SOURCE
from repro.runtime.machine import MachineSpec
from repro.taint.policy import TABLE1, format_table1

#: Web-server requests per Figure 6 point.
FIGURE6_REQUESTS = 25
#: Kernels of the compare-pruning check.
PRUNING_KERNELS = ("gzip", "crafty", "mcf")

#: Instrumentation variants measured with tainted (unsafe) input.
#: "no relax (safe)" runs with *safe* input: without relaxation a NaT
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

_KERNELS = tuple(BENCHMARKS)
_LEVELS = ("byte", "word")
_FIGURE7_BARS = ("byte_unsafe", "byte_safe", "word_unsafe", "word_safe")
#: Figure 9's components, as (role, origin) keys of ``pair_costs``.
_FIGURE9_PARTS = {"load_compute": (ROLE_TAG_COMPUTE, "load"),
                  "load_mem": (ROLE_TAG_MEM, "load"),
                  "store_compute": (ROLE_TAG_COMPUTE, "store"),
                  "store_mem": (ROLE_TAG_MEM, "store")}
_BASELINE_COLUMNS = ("shift_byte", "shift_word", "lift", "interpreter")
#: The issue-width ablation's kernel and widths; 6 is the default machine.
_WIDTH_KERNEL = "gzip"
_WIDTHS = (1, 2, 6)


def table2(apps: Sequence[VulnerableApp] = TABLE2_APPS) -> Dict:
    """Table 2: each exploit works against the unprotected build, and
    the byte- and word-level builds detect it and run the benign input
    without an alert."""
    rows = []
    for app in apps:
        unprotected = app.run(UNINSTRUMENTED, unprotected_config(), app.attack)
        row = {"app": app.name, "attack_succeeds_unprotected":
               bool(app.compromised and app.compromised(unprotected))}
        for level, options in (("byte", BYTE_LEVEL), ("word", WORD_LEVEL)):
            benign = app.run(options, app.policy_config(), app.benign)
            attack = app.run(options, app.policy_config(), app.attack)
            row[f"false_positive_{level}"] = bool(benign.alerts)
            row[f"detected_{level}"] = bool(attack.alerts)
            row[f"alert_policy_{level}"] = (attack.alerts[0].policy_id
                                            if attack.alerts else None)
        row["hit_expected"] = row["alert_policy_byte"] == app.expected_policy
        rows.append(row)
    return {
        "programs": [app.name for app in apps],
        "apps": rows,
        "all_detected": all(row["detected_byte"] and row["detected_word"]
                            for row in rows),
        "no_false_positives": not any(row["false_positive_byte"]
                                      or row["false_positive_word"]
                                      for row in rows),
    }


def render_table2(section: Dict) -> str:
    apps = {app.name: app for app in TABLE2_APPS}
    body = []
    for row in section["apps"]:
        app = apps[row["app"]]
        policies = "+".join(app.detection_policies) or "low-level"
        body.append([
            app.name, app.cve, app.language, app.attack_type,
            f"{policies} (hit: {row['alert_policy_byte']})",
            "yes" if row["attack_succeeds_unprotected"] else "NO",
            "yes" if row["detected_byte"] and row["detected_word"] else "NO",
            "FP!" if row["false_positive_byte"] or row["false_positive_word"]
            else "none",
        ])
    table = format_table(
        ["program", "CVE", "lang", "attack", "policies", "exploit works",
         "detected?", "false pos."],
        body,
        title="Table 2: security evaluation (paper: all detected, no false positives)",
    )
    return table + (f"\nall attacks detected: {section['all_detected']}; "
                    f"false positives: {not section['no_false_positives']}")


def table3(scale: str, benchmarks: Sequence[str] = _KERNELS) -> Dict:
    """Table 3: code-size expansion of the libc and of each kernel.

    Paper: glibc +36%/+45% (word/byte), SPEC +132-223% and +160-288%.
    Sizes are of the protection configuration (``BYTE_LEVEL`` and
    ``WORD_LEVEL``, strict pointer policy); the permissive SPEC-perf
    mode adds out-of-line pointer-laundering blocks that the paper's
    binaries do not contain.  The libc row counts the libc functions (the
    paper's glibc entry), a kernel's row every other function.
    """
    libc = {f.name for f in parse(LIBC_SOURCE).functions if f.body is not None}

    def row(name: str, sources: List[str], in_libc: bool) -> Dict:
        orig, word, byte = [
            sum(instructions_to_bytes(count) for function, count
                in compile_program(sources, options).function_sizes.items()
                if (function in libc) == in_libc)
            for options in (UNINSTRUMENTED, WORD_LEVEL, BYTE_LEVEL)]
        return {"name": name, "orig_bytes": orig,
                "word_bytes": word,
                "word_overhead_percent": 100.0 * (word - orig) / orig,
                "byte_bytes": byte,
                "byte_overhead_percent": 100.0 * (byte - orig) / orig}

    return {"apps": ["libc", *benchmarks],
            "libc": row("libc", [LIBC_SOURCE, "int main() { return 0; }"], True),
            "spec": [row(name, [LIBC_SOURCE, BENCHMARKS[name].source(scale)],
                         False) for name in benchmarks]}


def render_table3(section: Dict) -> str:
    return format_table(
        ["app", "orig (B)", "word (B)", "word ovh", "byte (B)", "byte ovh"],
        [[row["name"], row["orig_bytes"], row["word_bytes"],
          f"{row['word_overhead_percent']:.0f}%",
          row["byte_bytes"], f"{row['byte_overhead_percent']:.0f}%"]
         for row in [section["libc"], *section["spec"]]],
        title=("Table 3: code-size expansion (paper: glibc 36%/45%, "
               "SPEC word 132-223%, byte 160-288%)"),
    )


def figure6(sizes_kb: Sequence[int] = FILE_SIZES_KB,
            requests: int = FIGURE6_REQUESTS) -> Dict:
    """Figure 6: the web server's latency and throughput at each file
    size (ascending) under byte and word tracking, relative to the
    uninstrumented server.  Paper: ~1% geometric-mean overhead, worst
    (~4.2%) at 4 KB, where the transfer's I/O share is smallest."""
    rows = []
    for kb in sizes_kb:
        base, *runs = [run_webserver(PERF_OPTIONS[level], kb, requests)
                       for level in ("none", *_LEVELS)]
        row = {"file_kb": kb}
        for level, run in zip(_LEVELS, runs):
            latency = run.latency_cycles / base.latency_cycles
            row[f"{level}_latency"] = latency
            row[f"{level}_throughput"] = run.throughput / base.throughput
            row[f"{level}_overhead_percent"] = (latency - 1.0) * 100.0
        row["word_le_byte"] = row["word_latency"] <= row["byte_latency"] * 1.01
        rows.append(row)
    latencies = [row[f"{level}_latency"] for row in rows for level in _LEVELS]
    return {
        "requests": requests,
        "rows": rows,
        "mean_overhead_percent": (geomean(latencies) - 1.0) * 100.0,
        "small_file_worst": (rows[0]["byte_overhead_percent"]
                             >= rows[-1]["byte_overhead_percent"]),
    }


def render_figure6(section: Dict) -> str:
    table = format_table(
        ["file size", "byte latency", "byte thruput", "word latency",
         "word thruput", "byte ovh%", "word ovh%"],
        [[f"{row['file_kb']} KB", row["byte_latency"], row["byte_throughput"],
          row["word_latency"], row["word_throughput"],
          f"{row['byte_overhead_percent']:.1f}",
          f"{row['word_overhead_percent']:.1f}"]
         for row in section["rows"]],
        title=f"Figure 6: web-server overhead ({section['requests']} requests "
              "per point; relative to uninstrumented)",
    )
    return table + ("\ngeometric-mean latency overhead: "
                    f"{section['mean_overhead_percent']:.2f}% (paper: ~1%)")


def figure7(table: SpecTable, benchmarks: Sequence[str] = _KERNELS) -> Dict:
    """Figure 7: SPEC slowdown at byte and word level, with the input
    tainted (unsafe) or trusted (safe).  Paper: byte-unsafe 2.81X on
    average (1.32X-4.73X), word-unsafe 2.27X (1.34X-3.80X); gcc is the
    worst case, mcf the best."""
    rows = []
    for name in benchmarks:
        row = {"benchmark": name, **{
            f"{level}_{'safe' if safe else 'unsafe'}":
                table.slowdown(name, PERF_OPTIONS[level], safe)
            for safe in (False, True) for level in _LEVELS}}
        row["byte_ge_word"] = row["byte_unsafe"] >= row["word_unsafe"] * 0.98
        row["unsafe_ge_safe"] = row["byte_unsafe"] >= row["byte_safe"] * 0.98
        rows.append(row)
    byte_unsafe = itemgetter("byte_unsafe")
    return {
        "benchmarks": list(benchmarks),
        "rows": rows,
        "mean": {bar: geomean(row[bar] for row in rows)
                 for bar in _FIGURE7_BARS},
        "mcf_cheapest": min(rows, key=byte_unsafe)["benchmark"] == "mcf",
        "gcc_worst": max(rows, key=byte_unsafe)["benchmark"] == "gcc",
    }


def render_figure7(section: Dict, scale: str) -> str:
    rows, mean = section["rows"], section["mean"]
    table = format_table(
        ["benchmark", "byte-unsafe", "byte-safe", "word-unsafe", "word-safe"],
        [[row["benchmark"], *(row[bar] for bar in _FIGURE7_BARS)]
         for row in rows]
        + [["geo.mean", *(mean[bar] for bar in _FIGURE7_BARS)]],
        title=(f"Figure 7: SPEC slowdown vs uninstrumented (scale={scale}; "
               "paper: byte 2.81X avg, word 2.27X avg)"),
    )
    chart = bar_chart(
        [(row["benchmark"], {"byte": row["byte_unsafe"],
                             "word": row["word_unsafe"]}) for row in rows],
        title="Figure 7 (unsafe input): slowdown vs baseline", unit="X")
    return table + "\n\n" + chart


def figure8(table: SpecTable, benchmarks: Sequence[str] = _KERNELS) -> Dict:
    """Figure 8: the slowdown with the set/clear-NaT instructions, then
    with the NaT-aware compare too; mcf must be among ``benchmarks``.

    Paper section 6.3: set/clear cuts the average slowdown by 16
    points at both granularities, both enhancements by 49 (byte) / 47
    (word).  The cut tracks the amount of tainted data: 173/166 points
    for gcc, only 2/5 for mcf.
    """
    rows = []
    for name in benchmarks:
        for level in _LEVELS:
            unsafe, set_clear, both = [
                table.slowdown(name, PERF_OPTIONS[key])
                for key in (level, f"{level}-set/clear", f"{level}-both")]
            rows.append({
                "benchmark": name, "level": level, "unsafe": unsafe,
                "set_clear": set_clear, "both": both,
                "set_clear_reduction_points": (unsafe - set_clear) * 100.0,
                "both_reduction_points": (unsafe - both) * 100.0,
                "set_clear_no_worse": set_clear <= unsafe * 1.02,
                "both_no_worse": both <= set_clear * 1.02,
            })
    levels = {}
    for level in _LEVELS:
        level_rows = [row for row in rows if row["level"] == level]
        mean = {bar: geomean(row[bar] for row in level_rows)
                for bar in ("unsafe", "set_clear", "both")}
        points = {row["benchmark"]: row["both_reduction_points"]
                  for row in level_rows}
        levels[level] = {
            **mean,
            "set_clear_reduction": (mean["unsafe"] - mean["set_clear"]) * 100.0,
            "both_reduction": (mean["unsafe"] - mean["both"]) * 100.0,
            "mcf_both_points": points["mcf"],
            "top_moves_3x_mcf": max(points.values()) > 3 * max(points["mcf"], 1.0),
        }
    return {"rows": rows, "levels": levels}


def render_figure8(section: Dict, scale: str) -> str:
    body = []
    for level in _LEVELS:
        body += [[row["benchmark"], level, row["unsafe"], row["set_clear"],
                  row["both"], f"{row['set_clear_reduction_points']:.0f}",
                  f"{row['both_reduction_points']:.0f}"]
                 for row in section["rows"] if row["level"] == level]
        mean = section["levels"][level]
        body.append(["geo.mean", level, mean["unsafe"], mean["set_clear"],
                     mean["both"], f"{mean['set_clear_reduction']:.0f}",
                     f"{mean['both_reduction']:.0f}"])
    table = format_table(
        ["benchmark", "level", "unsafe", "+set/clear", "+both",
         "red(s/c) pts", "red(both) pts"],
        body,
        title=(f"Figure 8: architectural enhancements (scale={scale}; "
               "paper: set/clear -16pts, both -49/-47pts)"),
    )
    chart = bar_chart(
        [(row["benchmark"], {"unsafe": row["unsafe"],
                             "+set/clear": row["set_clear"],
                             "+both": row["both"]})
         for row in section["rows"] if row["level"] == "byte"],
        title="Figure 8 (byte-level): enhancement impact", unit="X")
    return table + "\n\n" + chart


def figure9(table: SpecTable, benchmarks: Sequence[str] = _KERNELS) -> Dict:
    """Figure 9: the remaining overhead split into tag-address
    computation and bitmap memory access, for load and store
    instrumentation, as fractions of the uninstrumented runtime.
    Paper: computation dominates (blamed on Itanium's
    unimplemented-bits translation), and loads outweigh stores."""
    parts = set(_FIGURE9_PARTS.values())
    rows = []
    for name in benchmarks:
        for level in _LEVELS:
            base, run = table.measure(name, PERF_OPTIONS[level])
            costs = run.counters.pair_costs
            row = {"benchmark": name, "level": level}
            for part, key in _FIGURE9_PARTS.items():
                pair = costs.get(key)
                row[part] = pair.cycles / base.cycles if pair else 0.0
            row["other_instrumentation"] = sum(
                cost.cycles for key, cost in costs.items()
                if key[0] is not None and key not in parts) / base.cycles
            rows.append(row)
    compute_wins = sum(row["load_compute"] + row["store_compute"]
                       > row["load_mem"] + row["store_mem"] for row in rows)
    loads_win = sum(row["load_compute"] + row["load_mem"]
                    >= row["store_compute"] + row["store_mem"] for row in rows)
    return {
        "rows": rows,
        "compute_wins": compute_wins,
        "loads_win": loads_win,
        # Computation beats bitmap access essentially everywhere; loads
        # beat stores for most kernels (mcf's store misses aside).
        "compute_dominates": compute_wins >= len(rows) - 1,
        "loads_dominate": loads_win >= len(rows) - 3,
    }


def render_figure9(section: Dict, scale: str) -> str:
    table = format_table(
        ["benchmark", "level", "ld compute", "ld mem", "st compute",
         "st mem", "other instr."],
        [[row["benchmark"], row["level"],
          *(row[c] for c in (*_FIGURE9_PARTS, "other_instrumentation"))]
         for row in section["rows"]],
        title=(f"Figure 9: overhead breakdown, fraction of baseline runtime "
               f"(scale={scale}; paper: computation >> memory access, "
               "loads >> stores)"),
    )
    chart = bar_chart(
        [(row["benchmark"], {"ld compute": row["load_compute"],
                             "ld mem": row["load_mem"],
                             "st compute": row["store_compute"],
                             "st mem": row["store_mem"]})
         for row in section["rows"] if row["level"] == "byte"],
        unit="x base", baseline=None,
        title="Figure 9 (byte-level): overhead components "
              "(fraction of baseline runtime)")
    return table + "\n\n" + chart


def baselines(table: SpecTable, benchmarks: Sequence[str] = _KERNELS) -> Dict:
    """Section 7 context: SHIFT against a LIFT-style DBT and an
    interpreter on the same kernels.  Paper: SHIFT 2.81X/2.27X, LIFT
    4.6X, interpretation-based systems far slower still."""
    model = InterpreterModel()
    rows = [{
        "benchmark": name,
        "shift_byte": table.slowdown(name, PERF_OPTIONS["byte"]),
        "shift_word": table.slowdown(name, PERF_OPTIONS["word"]),
        "lift": table.slowdown(name, PERF_OPTIONS["lift"]),
        "interpreter": model.slowdown(
            table.run(name, PERF_OPTIONS["none"]).counters),
    } for name in benchmarks]
    mean = {column: geomean(row[column] for row in rows)
            for column in _BASELINE_COLUMNS}
    return {"rows": rows, "mean": mean,
            "lift_clear_win": mean["lift"] > mean["shift_byte"] * 1.2}


def render_baselines(section: Dict, scale: str) -> str:
    mean = section["mean"]
    return format_table(
        ["benchmark", "SHIFT byte", "SHIFT word", "LIFT-style", "interpreter"],
        [[row["benchmark"], *(row[c] for c in _BASELINE_COLUMNS)]
         for row in section["rows"]]
        + [["geo.mean", *(mean[c] for c in _BASELINE_COLUMNS)]],
        title=(f"Related-work comparison (scale={scale}; paper context: "
               "SHIFT 2.81X/2.27X, LIFT 4.6X, emulators far slower)"),
    )


def ablations(table: SpecTable,
              benchmarks: Sequence[str] = ("gzip", "gcc", "mcf")) -> Dict:
    """Byte-level slowdown under each :data:`ABLATION_OPTIONS` variant.

    Not in the paper's figures, but each isolates a claim it makes in
    prose: per-function NaT-source generation is far cheaper than per
    use, and a kept global source cheaper still (section 4.4);
    Itanium's tag-address translation costs more than an x86-style one
    would (section 6.4); and what the relaxation around compares costs
    (section 4.1).
    """
    rows = [{"benchmark": name, "slowdowns": {
        label: table.slowdown(name, options, safe)
        for label, (options, safe) in ABLATION_OPTIONS.items()}}
        for name in benchmarks]
    mean = {label: geomean(row["slowdowns"][label] for row in rows)
            for label in ABLATION_OPTIONS}
    return {"rows": rows, "mean": mean,
            "global_natgen_no_worse": (mean["natgen global"]
                                       <= mean["byte (baseline)"] * 1.01)}


def render_ablations(section: Dict, scale: str) -> str:
    return format_table(
        ["benchmark", *ABLATION_OPTIONS],
        [[row["benchmark"], *(row["slowdowns"][label]
                              for label in ABLATION_OPTIONS)]
         for row in section["rows"]]
        + [["geo.mean", *(section["mean"][label]
                          for label in ABLATION_OPTIONS)]],
        title=("Ablations: byte-level slowdown under design variants "
               f"(scale={scale})"),
    )


def ablation_width(table: SpecTable) -> Dict:
    """Instrumentation overhead against issue width: a narrow machine
    cannot hide instrumentation in empty slots.  The default machine's
    width reuses the table's byte-level run."""
    rows = []
    for width in _WIDTHS:
        spec = MachineSpec(
            issue_config=IssueConfig(width=width, mem_ports=min(2, width)))
        base, run = table.measure(_WIDTH_KERNEL, PERF_OPTIONS["byte"],
                                  spec=spec)
        rows.append({"width": width, "baseline_cycles": base.cycles,
                     "shift_cycles": run.cycles,
                     "slowdown": run.cycles / base.cycles})
    return {"rows": rows,
            "narrow_costs_more": rows[0]["slowdown"] > rows[-1]["slowdown"]}


def render_ablation_width(section: Dict) -> str:
    return format_table(
        ["issue width", "slowdown"],
        [[row["width"], row["slowdown"]] for row in section["rows"]],
        title=(f"Issue-width ablation on {_WIDTH_KERNEL}: "
               "EPIC slack absorbs instrumentation"),
    )


def pruning(table: SpecTable) -> Dict:
    """Statically clean compares skip relaxation; it never costs cycles."""
    pruned = ABLATION_OPTIONS["pruned compares"][0]
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
        "table1": {"policy_ids": [policy.policy_id for policy in TABLE1]},
        "table2": table2(),
        "table3": table3(scale),
        "figure6": figure6(),
        "figure7": figure7(table),
        "figure8": figure8(table),
        "figure9": figure9(table),
        "baselines": baselines(table),
        "ablations": ablations(table),
        "ablation_width": ablation_width(table if quick else SpecTable("test")),
        "pruning": pruning(table),
        "spec_runs": len(table.runs),
    }
    print(f"{report['spec_runs']} SPEC runs at {scale} scale", flush=True)
    return report


def render(report: Dict) -> Dict[str, str]:
    """The text of each ``results/<name>.txt``, from a paper report."""
    scale = report["scale"]
    return {
        "table1": "Table 1: Security Policies in SHIFT\n" + format_table1(),
        "table2": render_table2(report["table2"]),
        "table3": render_table3(report["table3"]),
        "figure6": render_figure6(report["figure6"]),
        "figure7": render_figure7(report["figure7"], scale),
        "figure8": render_figure8(report["figure8"], scale),
        "figure9": render_figure9(report["figure9"], scale),
        "baselines": render_baselines(report["baselines"], scale),
        "ablations": render_ablations(report["ablations"], scale),
        "ablation_width": render_ablation_width(report["ablation_width"]),
    }
