"""Tests for the ASCII rendering helpers."""

import pytest

from repro.experiments.report import (
    format_heatmap,
    format_series_barchart,
    format_table,
    render,
    shade,
)


def test_format_table_alignment():
    rows = [["a", "bb"], ["ccc", "d"]]
    out = format_table(rows)
    lines = out.splitlines()
    assert lines[0] == "a    bb"
    assert lines[1].startswith("---")
    assert lines[2] == "ccc  d"


def test_format_table_empty():
    assert format_table([]) == ""


def test_shade_extremes():
    assert shade(0.0, 0.0, 1.0) == " "
    assert shade(1.0, 0.0, 1.0) == "@"
    assert shade(0.5, 0.5, 0.5) == " "  # degenerate range


def test_heatmap_contains_values_and_shades():
    values = {(y, x): float(x * y) for y in (1, 2) for x in (10, 20)}
    out = format_heatmap([10, 20], [1, 2], values)
    assert "40.0 @" in out
    assert "10.0" in out


def test_series_barchart_renders_title_and_groups():
    class FakeSeries:
        title = "T"
        xlabel = "X"
        xs = [1, 2]
        series = {"s": [1.0, 3.0]}

    out = format_series_barchart(FakeSeries())
    assert out.startswith("T")
    assert "X = 1" in out and "X = 2" in out


def test_render_table_object():
    class FakeTable:
        def rows(self):
            return [["h1", "h2"], ["v1", "v2"]]

    assert "h1" in render(FakeTable())
    with pytest.raises(TypeError):
        render(object())
