"""Unit tests for report rendering."""

import pytest

from repro.metrics.report import Table, format_figure_header


class TestTable:
    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table([])

    def test_row_width_enforced(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_precision(self):
        table = Table(["x"], precision=2)
        table.add_row(1.23456)
        assert "1.23" in table.render()
        assert "1.2345" not in table.render()

    def test_header_and_separator_present(self):
        table = Table(["alpha", "beta"])
        table.add_row(1, 2)
        lines = table.render().splitlines()
        assert "alpha" in lines[0] and "beta" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_title_rendered_first(self):
        table = Table(["x"], title="My Title")
        table.add_row(1)
        assert table.render().splitlines()[0] == "My Title"

    def test_numeric_columns_right_aligned(self):
        table = Table(["n"])
        table.add_row(1)
        table.add_row(1000)
        lines = table.render().splitlines()
        assert lines[-2].endswith("   1")
        assert lines[-1].endswith("1000")

    def test_string_columns_left_aligned(self):
        table = Table(["name", "v"])
        table.add_row("ab", 1)
        table.add_row("abcdef", 2)
        lines = table.render().splitlines()
        assert lines[-2].startswith("ab ")

    def test_str_dunder(self):
        table = Table(["x"])
        table.add_row(5)
        assert str(table) == table.render()


class TestFormatters:
    def test_figure_header(self):
        header = format_figure_header("Figure 3", "load distribution")
        assert "Figure 3" in header and "load distribution" in header
