"""Tests for repro.experiments.tables / figures over the miniature run."""

import pytest

from repro.experiments import figures, tables


class TestTable1:
    def test_all_rows_present(self, small_result):
        headers, rows = tables.table1(small_result)
        assert len(rows) == 8
        assert headers[0] == "Campaign ID"

    def test_dates_match_paper(self, small_result):
        _, rows = tables.table1(small_result)
        by_id = {row[0]: row for row in rows}
        assert by_id["Research-010"][3] == "29 March"
        assert by_id["Research-010"][4] == "31 March"
        assert by_id["General-005"][3] == "15 February"
        assert by_id["Football-010"][4] == "03 April"

    def test_counts_match_dataset(self, small_result):
        _, rows = tables.table1(small_result)
        dataset = small_result.dataset
        for row in rows:
            campaign_id = row[0]
            assert row[1] == len(dataset.select(campaign_id, "record_id"))
            assert row[2] == len(set(dataset.select(campaign_id, "domain")))

    def test_render_is_nonempty(self, small_result):
        assert "Table 1" in tables.render_table1(small_result)


class TestTable2:
    def test_rows_and_render(self, small_result):
        headers, rows = tables.table2(small_result)
        assert len(rows) == 8
        assert "%" in str(rows[0][1])
        assert "Table 2" in tables.render_table2(small_result)

    def test_vendor_dominates_audit_for_football(self, small_result):
        _, rows = tables.table2(small_result)
        by_id = {row[0]: row for row in rows}
        audit = float(by_id["Football-010"][1].split()[0])
        vendor = float(by_id["Football-010"][2].split()[0])
        assert vendor > audit


class TestTable3:
    def test_values_in_plausible_band(self, small_result):
        _, rows = tables.table3(small_result)
        for row in rows:
            value = float(str(row[1]).split()[0])
            assert 30.0 < value < 95.0

    def test_football_tops_research(self, small_result):
        _, rows = tables.table3(small_result)
        by_id = {row[0]: float(str(row[1]).split()[0]) for row in rows}
        assert by_id["Football-010"] > by_id["Research-020"]


class TestTable4:
    def test_football_most_exposed(self, small_result):
        _, rows = tables.table4(small_result)
        by_id = {row[0]: float(str(row[2]).split()[0]) for row in rows}
        assert by_id["Football-030"] > by_id["General-010"]

    def test_render(self, small_result):
        assert "Table 4" in tables.render_table4(small_result)


class TestFigure1:
    def test_vendor_misses_majority_region_exists(self, small_result):
        figure = figures.figure1(small_result)
        assert figure.aggregate.audit_only > 0
        assert figure.aggregate.both > 0
        assert figure.aggregate.vendor_only > 0
        assert figure.spotlight_id == "General-005"

    def test_render(self, small_result):
        text = figures.figure1(small_result).render()
        assert "Figure 1" in text
        assert "General-005" in text


class TestFigure2:
    def test_five_series(self, small_result):
        figure = figures.figure2(small_result)
        assert len(figure.distributions) == 5
        assert figure.bucket_labels

    def test_fractions_normalised(self, small_result):
        figure = figures.figure2(small_result)
        for distribution in figure.distributions:
            assert sum(distribution.impression_fractions) == pytest.approx(
                1.0, abs=1e-6)

    def test_render(self, small_result):
        text = figures.figure2(small_result).render()
        assert "Figure 2" in text
        assert "Russia" in text


class TestFigure3:
    def test_scatter_points_exist(self, small_result):
        figure = figures.figure3(small_result)
        assert figure.points
        assert figure.users_over_10 >= 0

    def test_render(self, small_result):
        text = figures.figure3(small_result).render()
        assert "Figure 3" in text
        assert ">10 impressions" in text
