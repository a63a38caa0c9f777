"""The bench suite registry: committed reports, gate rows, CI matrices.

JSON only: no suite runs here.  Each committed ``BENCH_<name>.json``
must pass its suite's gate table, each gate row must catch a report
that violates it, and the committed ``results/*.txt`` must be the
rendering of the committed paper report.
"""

import json
import pathlib
import re

import pytest

from repro.harness.suites import SUITES, check

ROOT = pathlib.Path(__file__).resolve().parent.parent

ROWS = [(name, row) for name, suite in SUITES.items() for row in suite.gates]
ROW_IDS = [f"{name}:{row[0]}{row[1]}" + "".join(f":{m}" for m in row[3:])
           for name, row in ROWS]


def _report(name):
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def _concrete(report, path):
    """``path`` with each ``*`` taken as the first element and each
    list index made non-negative, as failure messages print it."""
    node, keys = report, []
    for key in path.split("."):
        if key == "*":
            key = next(iter(node)) if isinstance(node, dict) else "0"
        if isinstance(node, list):
            key = str(int(key) % len(node))
            node = node[int(key)]
        else:
            node = node[key]
        keys.append(key)
    return ".".join(keys)


def _walk(report, concrete):
    """(container, last key) of a concrete path."""
    *head, last = concrete.split(".")
    node = report
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, (int(last) if isinstance(node, list) else last)


def _violation(op, want):
    """A value for which ``actual op want`` does not hold."""
    if op == "len>=":
        return [None] * (want - 1)
    if op == "==":
        if isinstance(want, bool):
            return not want
        if isinstance(want, list):
            return want + ["x"]
        return want + 1
    if op in ("<", ">"):
        return want
    return want - 1 if op == ">=" else want + 1


@pytest.mark.parametrize("name", sorted(SUITES))
def test_committed_report_passes_its_gates(name):
    assert check(SUITES[name], _report(name)) == []


@pytest.mark.parametrize("name,row", ROWS, ids=ROW_IDS)
def test_each_gate_row_catches_its_violation(name, row):
    path, op, expected, *mode = row
    report = _report(name)
    if mode:
        report["config"]["quick"] = mode[0] == "quick"
    concrete = _concrete(report, path)
    container, key = _walk(report, concrete)
    want = expected
    if isinstance(expected, str) and expected.startswith("@"):
        want = container[expected[1:]]
    container[key] = _violation(op, want)
    failures = check(SUITES[name], report)
    assert any(line.startswith(f"GATE FAIL {name}: {concrete} ")
               for line in failures), failures


def test_committed_results_render_from_the_paper_report():
    rendered = SUITES["paper"].render(_report("paper"))
    results = ROOT / "results"
    assert sorted(path.stem for path in results.glob("*.txt")) == \
        sorted(rendered)
    for name, text in rendered.items():
        assert (results / f"{name}.txt").read_text() == text + "\n", name


def test_unresolved_path_fails():
    report = _report("ckpt")
    del report["migration"]["digest_identical"]
    assert check(SUITES["ckpt"], report) == [
        "GATE FAIL ckpt: migration.digest_identical does not resolve"]


def test_ci_matrices_run_every_suite():
    suites = {}
    job = None
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in ci.splitlines():
        heading = re.match(r"^  ([\w-]+):\s*$", line)
        if heading:
            job = heading.group(1)
        matrix = re.match(r"^\s+suite: \[(.*)\]\s*$", line)
        if matrix:
            suites[job] = [s.strip() for s in matrix.group(1).split(",")]
    assert suites == {"smoke": list(SUITES), "benchmark": list(SUITES)}
