"""ASCII chart rendering tests."""

from repro.harness.charts import bar_chart
from repro.harness.paper import render_figure7, render_figure8, render_figure9


class TestBarChart:
    def test_basic_rendering(self):
        text = bar_chart([("alpha", {"a": 2.0, "b": 1.0})], title="T", unit="X")
        assert "T" in text
        assert "2.00X" in text and "1.00X" in text
        assert "alpha" in text

    def test_bars_scale_with_values(self):
        text = bar_chart([("g", {"a": 4.0}), ("h", {"a": 1.0})], width=40)
        lines = [l for l in text.splitlines() if "|" in l]
        long_bar = lines[0].split("|")[1].split()[0]
        short_bar = lines[1].split("|")[1].split()[0]
        assert len(long_bar) > 3 * len(short_bar)

    def test_series_glyphs_differ(self):
        text = bar_chart([("g", {"a": 1.0, "b": 1.0})])
        bars = [l.split("|")[1][0] for l in text.splitlines() if "|" in l]
        assert bars[0] != bars[1]

    def test_baseline_tick(self):
        text = bar_chart([("g", {"a": 2.0})], baseline=1.0)
        assert "^ 1X" in text

    def test_empty_groups(self):
        assert bar_chart([]) .strip() != None  # no crash


class TestFigureCharts:
    """Each figure's chart, rendered after its table from a section."""

    def test_figure7_chart(self):
        bars = ("byte_unsafe", "byte_safe", "word_unsafe", "word_safe")
        rows = [dict(zip(("benchmark", *bars), values)) for values in [
            ("gzip", 2.5, 2.0, 2.2, 1.9),
            ("mcf", 1.4, 1.3, 1.35, 1.25),
        ]]
        section = {"rows": rows, "mean": {bar: 1.0 for bar in bars}}
        text = render_figure7(section, "test").split("\n\n", 1)[1]
        assert "gzip" in text and "mcf" in text
        assert "2.50X" in text

    def test_figure8_chart(self):
        bars = ("unsafe", "set_clear", "both")
        rows = [{"benchmark": "gzip", "level": level,
                 "set_clear_reduction_points": 0.0,
                 "both_reduction_points": 0.0, **dict(zip(bars, values))}
                for level, values in [("byte", (2.5, 2.3, 1.8)),
                                      ("word", (2.2, 2.1, 1.6))]]
        mean = {bar: 1.0 for bar in bars}
        section = {"rows": rows, "levels": {
            level: {**mean, "set_clear_reduction": 0.0, "both_reduction": 0.0}
            for level in ("byte", "word")}}
        text = render_figure8(section, "test").split("\n\n", 1)[1]
        assert "+both" in text
        assert "1.80X" in text
        assert "1.60X" not in text  # word row excluded

    def test_figure9_chart(self):
        parts = ("load_compute", "load_mem", "store_compute", "store_mem",
                 "other_instrumentation")
        section = {"rows": [{"benchmark": "gzip", "level": "byte",
                             **dict(zip(parts, (0.6, 0.05, 0.1, 0.01, 0.5)))}]}
        text = render_figure9(section, "test").split("\n\n", 1)[1]
        assert "ld compute" in text
        assert "0.60x base" in text
