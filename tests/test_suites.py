"""The bench suite registry: committed reports, gate rows, CI matrices.

JSON only: no suite runs here.  Each committed ``BENCH_<name>.json``
must pass its suite's gate table, with one printed line per concrete
gate value; each gate row must catch a report that violates it; the
committed ``results/*.txt`` must be the rendering of the committed
paper report; and only the registry's ``main`` prints.
"""

import ast
import json
import pathlib
import re

import pytest

from repro.harness.suites import SUITES, check, gate_table, main, report_diff

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


def _fan_out(node, keys):
    """Number of concrete values a gate path names in a report."""
    if not keys:
        return 1
    key, rest = keys[0], keys[1:]
    if key == "*":
        children = node.values() if isinstance(node, dict) else node
        return sum(_fan_out(child, rest) for child in children)
    return _fan_out(node[int(key)] if isinstance(node, list) else node[key],
                    rest)


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


def test_gate_tables_show_every_concrete_value_of_the_committed_reports():
    total = 0
    for name, suite in SUITES.items():
        report = _report(name)
        mode = "quick" if report["config"]["quick"] else "full"
        values = sum(_fan_out(report, row[0].split("."))
                     for row in suite.gates if row[3:] in ((), (mode,)))
        table = gate_table(suite, report)
        assert len(table) == values, name
        for line in table:
            assert re.fullmatch(rf"GATE ok {name}: .+ = .+, want \S+ .+",
                                line), line
        total += values
    assert total == 328


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
    # The printed table shows each failing line exactly as check has it.
    table = gate_table(SUITES[name], report)
    assert [line for line in table if not line.startswith("GATE ok")] == \
        failures


@pytest.mark.parametrize("gate", [False, True])
def test_main_prints_the_whole_table_and_gate_sets_only_the_exit_status(
        gate, tmp_path, monkeypatch, capsys):
    suite = SUITES["ckpt"]
    body = _report("ckpt")
    del body["config"]
    body["migration"]["digest_identical"] = False
    monkeypatch.setitem(SUITES, "ckpt", suite._replace(
        run=lambda quick: json.loads(json.dumps(body))))
    output = tmp_path / "BENCH_ckpt.json"
    argv = ["ckpt", "--output", str(output)] + (["--gate"] if gate else [])
    assert main(argv) == (1 if gate else 0)
    out, err = capsys.readouterr()
    table = gate_table(suite, json.loads(output.read_text()))
    assert out.splitlines() == ["running ckpt (full)", f"wrote {output}"] + [
        line for line in table if line.startswith("GATE ok")]
    assert err.splitlines() == [line for line in table
                                if not line.startswith("GATE ok")] == [
        "GATE FAIL ckpt: migration.digest_identical = False, want == True"]


def test_committed_results_render_from_the_paper_report():
    rendered = SUITES["paper"].render(_report("paper"))
    results = ROOT / "results"
    assert sorted(path.stem for path in results.glob("*.txt")) == \
        sorted(rendered)
    for name, text in rendered.items():
        assert (results / f"{name}.txt").read_text() == text + "\n", name


def test_report_diff_ignores_config_and_last_bit_float_noise():
    old = _report("paper")
    new = json.loads(json.dumps(old))
    new["config"]["python"] = "0.0"
    new["figure7"]["mean"]["byte_unsafe"] *= 1 + 1e-12
    assert report_diff(old, new) == []


@pytest.mark.parametrize("path, value", [
    ("figure7.mean.byte_unsafe", 2.0),
    ("spec_runs", 1),
    ("figure7.gcc_worst", False),
    ("scale", "other"),
])
def test_report_diff_names_each_moved_value(path, value):
    old = _report("paper")
    new = json.loads(json.dumps(old))
    container, key = _walk(new, path)
    container[key] = value
    assert [line.split(":")[0] for line in report_diff(old, new)] == [path]


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


def test_only_the_registry_prints():
    harness = ROOT / "src" / "repro" / "harness"
    printing = []
    for path in sorted(harness.glob("*.py")):
        if path.name == "suites.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and node.func.id == "print":
                printing.append(f"{path.name}:{node.lineno}")
    assert printing == []
