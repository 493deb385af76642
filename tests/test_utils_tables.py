"""Tests for repro.utils.tables — result tables."""

import pytest

from repro.utils.tables import ResultTable


@pytest.fixture
def table():
    t = ResultTable(["mechanism", "epsilon", "mre"], title="demo")
    t.add_row(mechanism="uniform", epsilon=1.0, mre=0.3)
    t.add_row(mechanism="bd", epsilon=1.0, mre=0.8)
    t.add_row(mechanism="uniform", epsilon=2.0, mre=0.2)
    return t


class TestConstruction:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ResultTable([])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            ResultTable(["a", "a"])

    def test_len_counts_rows(self, table):
        assert len(table) == 3


class TestRows:
    def test_unknown_column_rejected(self, table):
        with pytest.raises(KeyError):
            table.add_row(mechanism="x", epsilon=1.0, unknown=5)

    def test_missing_values_become_none(self):
        t = ResultTable(["a", "b"])
        t.add_row(a=1)
        assert t.rows[0]["b"] is None

    def test_rows_are_copies(self, table):
        table.rows[0]["mre"] = 999
        assert table.rows[0]["mre"] == 0.3


class TestQueries:
    def test_column(self, table):
        assert table.column("mechanism") == ["uniform", "bd", "uniform"]

    def test_column_unknown(self, table):
        with pytest.raises(KeyError):
            table.column("nope")

    def test_sort_by(self, table):
        by_mre = table.sort_by("mre")
        assert by_mre.column("mre") == [0.2, 0.3, 0.8]

    def test_sort_by_does_not_mutate(self, table):
        table.sort_by("mre")
        assert table.column("mre") == [0.3, 0.8, 0.2]

    def test_filter(self, table):
        uniform = table.filter(mechanism="uniform")
        assert len(uniform) == 2
        assert all(row["mechanism"] == "uniform" for row in uniform)

    def test_filter_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.filter(nope=1)


class TestRendering:
    def test_render_includes_title_and_headers(self, table):
        text = table.render()
        assert "demo" in text
        assert "mechanism" in text
        assert "uniform" in text

    def test_render_formats_floats(self, table):
        assert "0.3000" in table.render()

    def test_render_custom_float_format(self, table):
        assert "0.30" in table.render(float_format="{:.2f}")

    def test_render_empty_table(self):
        t = ResultTable(["a", "b"])
        text = t.render()
        assert "a" in text and "b" in text


class TestCsv:
    def test_to_csv_round_trips_header(self, table):
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "mechanism,epsilon,mre"
        assert len(lines) == 4

    def test_write_csv(self, table, tmp_path):
        path = tmp_path / "out.csv"
        table.write_csv(str(path))
        assert path.read_text().startswith("mechanism,epsilon,mre")
