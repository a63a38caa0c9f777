"""Experiment-harness tests on reduced workloads."""

import dataclasses
import gc
import json
import pathlib

import pytest

from repro.apps.webserver import traversal_request
from repro.compiler.instrument import BYTE_LEVEL
from repro.fleet.driver import FleetConfig
from repro.harness import paper
from repro.harness.formatting import format_table, geomean, ratio_quartiles
from repro.harness.runners import (PERF_OPTIONS, SpecTable, paired_times,
                                   serve_requests)
from repro.runtime.machine import MachineSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def table():
    """One test-scale SPEC table shared by the figure checks."""
    return SpecTable("test")


class TestFormatting:
    def test_geomean(self):
        assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-9

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text


class TestPairedTimes:
    def test_arms_alternate_and_gc_stays_out(self):
        calls = []

        def arm(name, seconds):
            def timed():
                calls.append((name, gc.isenabled()))
                return seconds
            return timed

        times = paired_times({"a": arm("a", 1.0), "b": arm("b", 2.0),
                              "c": arm("c", 4.0)}, 3)
        assert [name for name, _ in calls] == list("abcbcacab")
        assert not any(enabled for _, enabled in calls)
        assert gc.isenabled()
        assert times == {"a": [1.0] * 3, "b": [2.0] * 3, "c": [4.0] * 3}

    def test_ratio_quartiles(self):
        assert ratio_quartiles([2.0, 4.0, 6.0, 8.0, 10.0], [1.0] * 5) == \
            (4.0, 6.0, 8.0)


class TestServeRequests:
    def test_a_dead_worker_fails_the_experiment(self):
        # Raise mode: the traversal's H2 alert kills the worker, and
        # the experiment must not read the cut-short run as a result.
        config = FleetConfig(variant="resil", options=BYTE_LEVEL,
                             engine_mode="raise")
        with pytest.raises(RuntimeError, match="died .alert.*H2"):
            serve_requests(config, [(traversal_request(), None)])


class TestFigure6:
    def test_rows_and_mean(self):
        section = paper.figure6(sizes_kb=(4, 16), requests=3)
        assert [row["file_kb"] for row in section["rows"]] == [4, 16]
        assert -2.0 < section["mean_overhead_percent"] < 10.0
        text = paper.render_figure6(section)
        assert "4 KB" in text and "geometric-mean" in text


class TestFigure7:
    def test_subset_run(self, table):
        section = paper.figure7(table, ["mcf", "crafty"])
        assert len(section["rows"]) == 2
        for row in section["rows"]:
            assert row["byte_unsafe"] >= row["word_unsafe"] * 0.95
            assert row["byte_unsafe"] > 1.0
        assert "geo.mean" in paper.render_figure7(section, table.scale)

    def test_render_reads_only_report_data(self, table):
        # The report is written as sorted-key JSON: a section must
        # render the same text after that round trip.
        section = paper.figure7(table, ["mcf"])
        stored = json.loads(json.dumps(section, sort_keys=True))
        assert paper.render_figure7(stored, table.scale) == \
            paper.render_figure7(section, table.scale)


class TestFigure8:
    def test_enhancements_reduce_slowdown(self, table):
        # The per-level summary reads mcf's points, so mcf rides along.
        section = paper.figure8(table, ["gzip", "mcf"])
        for row in section["rows"]:
            assert row["both"] <= row["unsafe"]
            assert row["set_clear"] <= row["unsafe"] * 1.01
        text = paper.render_figure8(section, table.scale)
        assert "red(both) pts" in text


class TestFigure9:
    def test_breakdown_structure(self, table):
        section = paper.figure9(table, ["gzip"])
        row = section["rows"][0]
        assert row["level"] == "byte"
        assert row["load_compute"] > 0
        assert row["load_mem"] > 0
        # The paper's headline findings:
        assert (row["load_compute"] + row["store_compute"]
                > row["load_mem"] + row["store_mem"])
        assert row["load_compute"] > row["store_compute"]
        assert "ld compute" in paper.render_figure9(section, table.scale)


class TestTables:
    def test_table1_static(self):
        report = json.loads((ROOT / "BENCH_paper.json").read_text())
        assert len(report["table1"]["policy_ids"]) == 8
        assert "H5" in paper.render(report)["table1"]

    def test_table3_subset(self):
        section = paper.table3("test", ["mcf"])
        assert section["apps"] == ["libc", "mcf"]
        mcf = section["spec"][0]
        assert 0 < mcf["word_overhead_percent"] < mcf["byte_overhead_percent"]
        assert "Table 3" in paper.render_table3(section)


class TestBaselineComparison:
    def test_ordering(self, table):
        section = paper.baselines(table, ["bzip2"])
        row = section["rows"][0]
        assert (row["shift_word"] < row["shift_byte"] < row["lift"]
                < row["interpreter"])
        assert "LIFT-style" in paper.render_baselines(section, table.scale)


class TestSpecSlowdownHelper:
    def test_checksum_guard(self, table, monkeypatch):
        word = PERF_OPTIONS["word"]
        assert table.slowdown("crafty", word) > 1.0
        runs = len(table.runs)
        table.slowdown("crafty", word)
        assert len(table.runs) == runs  # each configuration runs once
        # A diverging instrumented checksum raises.
        key = ("crafty", word, False, MachineSpec())
        monkeypatch.setitem(table.runs, key, dataclasses.replace(
            table.runs[key], checksum=table.runs[key].checksum + 1))
        with pytest.raises(AssertionError, match="checksum diverged"):
            table.slowdown("crafty", word)
