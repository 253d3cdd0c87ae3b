"""Tests for rendering (repro.utils.render)."""

from repro.utils.render import render_percent, render_series, render_table


class TestRenderTable:
    def test_basic_alignment(self):
        text = render_table(["name", "value"], [["alpha", 12], ["b", 3]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "alpha" in lines[2]

    def test_title(self):
        text = render_table(["a"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_numeric_right_aligned(self):
        text = render_table(["col"], [["1234"], ["5"]])
        rows = text.splitlines()[2:]
        assert rows[1].endswith("5")

    def test_row_width_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestRenderSeries:
    def test_contains_points(self):
        text = render_series("curve", [(1.0, 0.5), (10.0, 1.0)])
        assert "curve" in text
        assert "50.00%" in text

    def test_render_percent(self):
        assert render_percent(0.0332) == "3.32%"
