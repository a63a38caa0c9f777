"""Experiment-harness tests on reduced workloads."""

import dataclasses

import pytest

from repro.harness.baselines_cmp import (format_baselines,
                                         run_baseline_comparison)
from repro.harness.figure6 import format_figure6, run_figure6
from repro.harness.figure7 import format_figure7, run_figure7
from repro.harness.figure8 import format_figure8, run_figure8
from repro.harness.figure9 import format_figure9, run_figure9
from repro.harness.formatting import format_table, geomean
from repro.harness.runners import PERF_OPTIONS, SpecTable
from repro.harness.table1 import format_table1_output, run_table1
from repro.harness.table3 import format_table3, run_table3
from repro.runtime.machine import MachineSpec


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


class TestFigure6:
    def test_rows_and_mean(self):
        result = run_figure6(sizes_kb=(4, 16), requests=3)
        assert [row.file_kb for row in result.rows] == [4, 16]
        assert -2.0 < result.mean_overhead_percent < 10.0
        text = format_figure6(result)
        assert "4 KB" in text and "geometric-mean" in text


class TestFigure7:
    def test_subset_run(self, table):
        result = run_figure7(table, ["mcf", "crafty"])
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.byte_unsafe >= row.word_unsafe * 0.95
            assert row.byte_unsafe > 1.0
        assert "geo.mean" in format_figure7(result)


class TestFigure8:
    def test_enhancements_reduce_slowdown(self, table):
        result = run_figure8(table, ["gzip"])
        for row in result.rows:
            assert row.both <= row.unsafe
            assert row.set_clear <= row.unsafe * 1.01
        text = format_figure8(result)
        assert "red(both) pts" in text


class TestFigure9:
    def test_breakdown_structure(self, table):
        result = run_figure9(table, ["gzip"], levels=("byte",))
        row = result.rows[0]
        assert row.load_compute > 0
        assert row.load_mem > 0
        # The paper's headline findings:
        assert row.computation_total > row.memory_total
        assert row.load_compute > row.store_compute
        assert "ld compute" in format_figure9(result)


class TestTables:
    def test_table1_static(self):
        assert len(run_table1()) == 8
        assert "H5" in format_table1_output()

    def test_table3_subset(self):
        rows = run_table3(benchmarks=["mcf"], scale="test")
        by_name = {row.name: row for row in rows}
        assert set(by_name) == {"libc", "mcf"}
        mcf = by_name["mcf"]
        assert 0 < mcf.word_overhead_percent < mcf.byte_overhead_percent
        assert "Table 3" in format_table3(rows)


class TestBaselineComparison:
    def test_ordering(self, table):
        result = run_baseline_comparison(table, ["bzip2"])
        row = result.rows[0]
        assert row.shift_word < row.shift_byte < row.lift < row.interpreter
        assert "LIFT-style" in format_baselines(result)


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
