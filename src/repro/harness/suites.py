"""One registry for the bench suites: run one, write its report, gate it.

Each suite is a :class:`Suite`: its name, its ``run_suite`` (which
returns the report body) and its gate rows.  A gate row is data,
``(path, op, expected)``:

* ``path`` is a dotted walk into the report.  A ``*`` segment fans out
  over every element of a list (or value of a dict), and an integer
  segment indexes a list (``-1`` is the last element).
* ``op`` is one of :data:`OPS`.
* ``expected`` is a literal, or ``"@name"``: the sibling ``name`` in the
  container that holds the checked value (``"@requests"`` next to
  ``served`` compares the two).

A row may carry a fourth element, ``"quick"`` or ``"full"``, when its
threshold differs between the two modes or its claim holds in one mode
only (``config.quick`` decides).
:func:`check` evaluates every row and returns one
``GATE FAIL <suite>: <path> = <actual>, want <op> <expected>`` line
per violation; a path that does not resolve is a violation too.

::

    PYTHONPATH=src python -m repro.harness.suites NAME [--quick] [--gate]
        [--seed N] [--output PATH]

writes ``BENCH_<NAME>.json``: the suite's report plus one common
``config`` block (suite, quick, seed, python).  ``--quick`` is the CI
smoke configuration; ``--gate`` exits 1 unless every row holds.  A full
run of a suite with a ``render`` step (the paper suite) also writes
each of its ``results/<name>.txt`` tables from the report, in a
``results/`` directory beside the report file.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import pathlib
import sys
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

from repro.harness import (
    adaptivebench,
    chaosbench,
    ckptbench,
    fleetbench,
    guestbench,
    paper,
    perfbench,
    resilbench,
    servebench,
    specbench,
)

__all__ = ["OPS", "SUITES", "Suite", "check", "main", "report_diff", "run"]

#: Gate comparison operators; ``len>=`` compares a list's length.
OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "len>=": lambda actual, want: len(actual) >= want,
}

Row = Tuple[Any, ...]

#: The Figure-7 SPEC kernels and the Table 2 programs, in report order.
_KERNELS = ["gzip", "gcc", "crafty", "bzip2", "vpr", "mcf", "parser", "twolf"]
_TABLE2_PROGRAMS = ["tar", "gzip", "qwikiwiki", "scry", "php-stats",
                    "phpsysinfo", "phpmyfaq", "bftpd"]


class Suite(NamedTuple):
    """One bench suite: how to run it and what its report must show."""

    name: str
    #: ``run(quick)`` or, for a seeded suite, ``run(quick, seed)``;
    #: returns the report body (everything but ``config``).
    run: Callable[..., Dict]
    gates: Tuple[Row, ...]
    #: Default seed; None for a suite with no seeded randomness.
    seed: Optional[int] = None
    #: ``render(report)`` -> ``{name: text}`` for ``results/<name>.txt``,
    #: written after a full run.
    render: Optional[Callable[[Dict], Dict[str, str]]] = None


_SUITES = (
    Suite("resil", resilbench.run_suite, (
        ("campaign.kinds.tag_flip.detection_rate", ">=", 0.95),
        ("campaign.kinds.nat_drop.detection_rate", ">=", 0.95),
        ("campaign.controls.*.false_alerts", "==", 0),
        ("campaign.kinds.*.false_alerts", "==", 0),
        ("attack_mix.exact", "==", True),
    ), seed=12345),
    Suite("fleet", fleetbench.run_suite, (
        # Quick mode measures 1 -> 2 workers, full mode 1 -> 4.
        ("scaling.scaling", ">=", 1.6, "quick"),
        ("scaling.scaling", ">=", 2.5, "full"),
        ("attack_mix.detection_rate", ">=", 1.0),
        ("attack_mix.exact", "==", True),
        ("clean_control.clean", "==", True),
        ("two_tier.proof", "==", True),
        ("reproducibility.rerun_identical", "==", True),
        ("reproducibility.processes_identical", "==", True),
    ), seed=0),
    Suite("adaptive", adaptivebench.run_suite, (
        ("clean_heavy.speedup", ">=", 1.5),
        ("clean_heavy.identical_to_always_on", "==", True),
        ("clean_heavy.attacks_detected", "==", "@attacks_expected"),
        ("clean_heavy.uninstrumented.alerts", "==", []),
        ("taint_heavy.identical_to_always_on", "==", True),
        ("taint_heavy.attacks_detected", "==", "@attacks_expected"),
        ("spec.*.checksum_match", "==", True),
        ("detection.attack_mix.exact", "==", True),
        ("detection.wire_taint.detected", "==", True),
    )),
    Suite("serve", servebench.run_suite, (
        ("curve.points", "len>=", 4),
        ("curve.points.*.dropped", "==", 0),
        ("curve.points.*.served", "==", "@requests"),
        ("autoscale.scaled_up", "==", True),
        ("autoscale.p99_bounded", "==", True),
        ("autoscale.p99_beats_fixed", "==", True),
        ("autoscale.rerun_identical", "==", True),
        ("attack_mix.detection.attacks", ">=", 2),
        ("attack_mix.detection.detection_rate", ">=", 1.0),
        ("attack_mix.false_alerts", "==", 0),
        ("attack_mix.scale_ups", ">=", 1),
        ("attack_mix.retires", ">=", 1),
        ("attack_mix.exact", "==", True),
        ("attack_mix.drain_migration.migrations", ">=", 1),
        ("attack_mix.drain_migration.zero_downtime", "==", True),
    ), seed=0),
    Suite("ckpt", ckptbench.run_suite, (
        ("throughput.delta_overhead", "<=", 0.10),
        ("throughput.full_copies_more", "==", True),
        ("equivalence.identical", "==", True),
        ("migration.digest_identical", "==", True),
        ("capture_scaling.-1.delta_pages", "<", "@full_pages"),
    )),
    Suite("chaos", chaosbench.run_suite, (
        ("campaigns.*.exactly_once", "==", True),
        ("campaigns.*.outcome_matches_control", "==", True),
        ("campaigns.*.recoveries", "len>=",
         chaosbench.CAMPAIGN_CRASHES + chaosbench.CAMPAIGN_STALLS),
        ("campaigns.*.detection.detection_rate", ">=", 1.0),
        ("campaigns.*.evidence_intact", "==", True),
        ("campaigns.*.false_alerts", "==", 0),
        ("campaigns.*.recovery_bounded", "==", True),
        ("campaigns.*.rerun_identical", "==", True),
        ("zombie.deduped", "==", True),
        ("zombie.exactly_once", "==", True),
        ("shedding.shed", ">=", 1),
        ("shedding.no_silent_drops", "==", True),
        ("shedding.accepted_complete", "==", True),
        ("shedding.exactly_once", "==", True),
        ("shedding.detection.detection_rate", ">=", 1.0),
        ("wire.wire_visible", "==", True),
        ("wire.outcome_matches_control", "==", True),
        ("wire.exactly_once", "==", True),
    ), seed=0),
    Suite("guest", guestbench.run_suite, (
        ("services.*.*.detection_rate", ">=", 1.0),
        ("services.*.*.clean_false_alerts", "==", 0),
        ("services.*.*.origins_ok", "==", True),
        ("services.*.*.digest_stable", "==", True),
        ("services.*.*.exact", "==", True),
        ("adaptive.exact", "==", True),
        ("fleet.exact", "==", True),
    ), seed=20080),
    Suite("spec", specbench.run_suite, (
        ("contained.*.speedup", ">=", 1.2),
        ("contained.*.identical_to_always_on", "==", True),
        ("contained.*.rollbacks", "==", 0),
        ("contained.*.uninstrumented.alerts", "==", []),
        ("misspec.*.rollbacks", "==", "@expected_rollbacks"),
        ("misspec.*.replay_digest_equal", "==", True),
        ("misspec.*.h4_detected", "==", True),
        ("word.speedup", ">=", 1.2),
        ("word.identical_to_always_on", "==", True),
        ("cross_engine_identical", "==", True),
    )),
    Suite("interp", perfbench.run_suite, (
        # Absolute throughput varies with the host; the ratio does not.
        ("geomean_speedup_all", ">=", 1.0),
    )),
    # The paper's shape claims.  Each holds at test and ref scale
    # unless marked "full".
    Suite("paper", paper.run_suite, (
        ("table1.policy_ids", "==",
         ["H1", "H2", "H3", "H4", "H5", "L1", "L2", "L3"]),
        ("table2.programs", "==", _TABLE2_PROGRAMS),
        ("table2.apps.*.attack_succeeds_unprotected", "==", True),
        ("table2.apps.*.detected_byte", "==", True),
        ("table2.apps.*.detected_word", "==", True),
        ("table2.apps.*.hit_expected", "==", True),
        ("table2.all_detected", "==", True),
        ("table2.no_false_positives", "==", True),
        ("table3.apps", "==", ["libc", *_KERNELS]),
        ("table3.libc.word_overhead_percent", ">", 0),
        ("table3.libc.word_overhead_percent", "<", "@byte_overhead_percent"),
        ("table3.spec.*.word_overhead_percent", "<", "@byte_overhead_percent"),
        ("table3.spec.*.word_overhead_percent", ">=", 100),
        ("table3.spec.*.word_overhead_percent", "<=", 260),
        ("table3.spec.*.byte_overhead_percent", ">=", 140),
        ("table3.spec.*.byte_overhead_percent", "<=", 320),
        ("figure6.mean_overhead_percent", ">=", 0.0),
        ("figure6.mean_overhead_percent", "<", 5.0),
        ("figure6.rows.*.byte_latency", "<", 1.10),
        ("figure6.rows.*.word_le_byte", "==", True),
        ("figure6.rows.*.byte_throughput", ">", 0.90),
        ("figure6.small_file_worst", "==", True),
        ("figure7.benchmarks", "==", _KERNELS),
        ("figure7.rows.*.byte_unsafe", ">", 1.0),
        ("figure7.rows.*.byte_ge_word", "==", True),
        ("figure7.rows.*.unsafe_ge_safe", "==", True),
        ("figure7.mcf_cheapest", "==", True),
        ("figure7.gcc_worst", "==", True, "full"),
        ("figure7.mean.byte_unsafe", ">", 1.6),
        ("figure7.mean.byte_unsafe", "<", 3.5),
        ("figure7.mean.word_unsafe", ">", 1.5),
        ("figure7.mean.word_unsafe", "<", 3.0),
        ("figure7.mean.word_unsafe", "<", "@byte_unsafe"),
        ("figure8.rows.*.set_clear_no_worse", "==", True),
        ("figure8.rows.*.both_no_worse", "==", True),
        ("figure8.levels.*.both_reduction", ">", 8.0),
        ("figure8.levels.*.mcf_both_points", "<", 10.0),
        ("figure8.levels.*.top_moves_3x_mcf", "==", True),
        ("figure9.compute_dominates", "==", True),
        ("figure9.loads_dominate", "==", True),
        ("baselines.mean.shift_word", "<", "@shift_byte"),
        ("baselines.mean.shift_byte", "<", "@lift"),
        ("baselines.mean.lift", "<", "@interpreter"),
        ("baselines.mean.interpreter", ">", 5.0),
        ("baselines.lift_clear_win", "==", True),
        ("ablations.mean.natgen per use", ">", "@byte (baseline)"),
        ("ablations.rows.*.slowdowns.natgen per use", ">", "@byte (baseline)"),
        ("ablations.global_natgen_no_worse", "==", True),
        ("ablations.mean.x86-style tag xlat", "<", "@byte (baseline)"),
        ("ablations.rows.*.slowdowns.x86-style tag xlat", "<",
         "@byte (baseline)"),
        ("ablations.mean.no relax (safe)", "<", "@byte (safe input)"),
        ("ablation_width.narrow_costs_more", "==", True),
        ("pruning.*.never_hurts", "==", True),
    ), render=paper.render),
)

#: Every suite by name, in CI matrix order.
SUITES: Dict[str, Suite] = {suite.name: suite for suite in _SUITES}

_MISSING = object()


def _resolve(node: Any, keys: List[str],
             trail: Tuple[str, ...] = ()) -> Iterator[Tuple[str, Any, Any]]:
    """Yield ``(concrete path, value, container)`` for each match.

    ``value`` is :data:`_MISSING` where the walk breaks off; ``*``
    over an empty list or dict yields nothing.
    """
    if not keys:
        yield ".".join(trail), node, None
        return
    key, rest = keys[0], keys[1:]
    children: Iterable[Tuple[Any, Any]]
    if key == "*":
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        else:
            yield ".".join(trail + tuple(keys)), _MISSING, None
            return
    else:
        try:
            if isinstance(node, list):
                index = int(key)
                child = node[index]
                children = [(index % len(node), child)]
            else:
                children = [(key, node[key])]
        except (KeyError, IndexError, TypeError, ValueError):
            yield ".".join(trail + tuple(keys)), _MISSING, None
            return
    for name, child in children:
        for path, value, container in _resolve(child, rest,
                                               trail + (str(name),)):
            yield path, value, node if container is None else container


def _get(node: Any, path: str) -> Any:
    """The value at a path without ``*`` (:data:`_MISSING` if absent)."""
    return next(_resolve(node, path.split(".")))[1]


def _show(value: Any, op: str) -> str:
    if op == "len>=" and isinstance(value, list):
        return f"<{len(value)} items>"
    return repr(value)


def check(suite: Suite, report: Dict) -> List[str]:
    """One ``GATE FAIL`` line per gate row ``report`` violates."""
    failures: List[str] = []
    fail = f"GATE FAIL {suite.name}:"
    for path, op, expected, *mode in suite.gates:
        if mode:
            quick = _get(report, "config.quick")
            if quick is _MISSING:
                failures.append(f"{fail} config.quick does not resolve")
                continue
            if mode[0] != ("quick" if quick else "full"):
                continue
        for concrete, actual, container in _resolve(report, path.split(".")):
            if actual is _MISSING:
                failures.append(f"{fail} {concrete} does not resolve")
                continue
            want, shown = expected, repr(expected)
            if isinstance(expected, str) and expected.startswith("@"):
                want = _get(container, expected[1:])
                if want is _MISSING:
                    failures.append(f"{fail} {concrete}: sibling "
                                    f"{expected} does not resolve")
                    continue
                shown = f"{expected} ({want!r})"
            try:
                holds = OPS[op](actual, want)
            except TypeError:
                holds = False
            if not holds:
                failures.append(f"{fail} {concrete} = {_show(actual, op)}, "
                                f"want {op} {shown}")
    return failures


def report_diff(old: Any, new: Any, path: str = "") -> List[str]:
    """One line per value where two reports differ, ``config`` aside.

    Floats agree within 1e-9 relative, because another host's libm may
    round the last bit differently; every other value must be equal
    and of the same type.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(set(old) | set(new)):
            where = f"{path}.{key}" if path else key
            if where == "config":
                continue
            if key not in old or key not in new:
                lines.append(f"{where}: only in the "
                             f"{'new' if key in new else 'old'} report")
            else:
                lines += report_diff(old[key], new[key], where)
        return lines
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        return [line for i, pair in enumerate(zip(old, new))
                for line in report_diff(*pair, f"{path}.{i}")]
    if isinstance(old, float) and isinstance(new, float):
        same = math.isclose(old, new, rel_tol=1e-9)
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [f"{path}: {old!r} != {new!r}"]


def run(suite: Suite, quick: bool, seed: Optional[int] = None) -> Dict:
    """Run one suite; its report with the common ``config`` block."""
    if suite.seed is None:
        report = suite.run(quick)
    else:
        seed = suite.seed if seed is None else seed
        report = suite.run(quick, seed)
    report["config"] = {
        "suite": suite.name,
        "quick": quick,
        "seed": seed,
        "python": sys.version.split()[0],
    }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.suites", description=__doc__.split("\n")[0])
    parser.add_argument("name", choices=list(SUITES), help="suite to run")
    parser.add_argument("--quick", action="store_true",
                        help="the CI smoke configuration")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 unless every gate row holds")
    parser.add_argument("--seed", type=int,
                        help="seed for a seeded suite (default: its own)")
    parser.add_argument("--output", help="report path "
                        "(default: BENCH_<name>.json)")
    args = parser.parse_args(argv)
    suite = SUITES[args.name]
    if args.seed is not None and suite.seed is None:
        parser.error(f"suite {suite.name!r} has no seeded randomness")

    report = run(suite, args.quick, args.seed)
    output = args.output or f"BENCH_{suite.name}.json"
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output}")
    if suite.render is not None and not args.quick:
        results = pathlib.Path(output).parent / "results"
        results.mkdir(exist_ok=True)
        for name, text in suite.render(report).items():
            (results / f"{name}.txt").write_text(text + "\n")
        print(f"rendered {results}/")
    if not args.gate:
        return 0
    failures = check(suite, report)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
