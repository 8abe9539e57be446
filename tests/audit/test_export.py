"""Tests for repro.audit.export."""

import csv
import io
import json
from types import SimpleNamespace

import pytest

from repro.audit.export import (
    CSV_COLUMNS,
    report_to_csv,
    report_to_dict,
    report_to_json,
)
from repro.audit.report import full_audit


@pytest.fixture(scope="module")
def report(dataset):
    return full_audit(dataset)


class TestDictExport:
    def test_campaign_coverage(self, report):
        data = report_to_dict(report)
        ids = [entry["campaign_id"] for entry in data["campaigns"]]
        assert ids == ["Football-010", "Research-010"]

    def test_values_match_report(self, report):
        data = report_to_dict(report)
        football = data["campaigns"][0]
        assert football["brand_safety"]["publishers_audit_only"] == 2
        assert football["context"]["audit_pct"] == pytest.approx(66.67, abs=0.01)
        assert football["fraud"]["dc_impressions_pct"] == pytest.approx(16.67,
                                                                        abs=0.01)

    def test_aggregate_and_frequency_sections(self, report):
        data = report_to_dict(report)
        assert data["aggregate"]["publishers_audit_only"] == 3
        assert data["frequency"]["total_users"] == 5
        assert data["blacklist"] == ["casino-x.es"]

    def test_popularity_fractions_normalised(self, report):
        data = report_to_dict(report)
        for campaign in data["campaigns"]:
            fractions = campaign["popularity"]["impression_fractions"]
            assert sum(fractions) == pytest.approx(1.0, abs=0.01)


class TestJsonExport:
    def test_json_parses_back(self, report):
        data = json.loads(report_to_json(report))
        assert len(data["campaigns"]) == 2

    def test_json_is_sorted_and_indented(self, report):
        text = report_to_json(report)
        assert text.startswith("{\n")
        assert '"aggregate"' in text


class TestFunnelExport:
    def test_render_uses_dash_for_infinite_cost(self, dataset):
        from repro.experiments.tables import render_conversion_funnel

        fake_result = SimpleNamespace(dataset=dataset, conversions=[])
        text = render_conversion_funnel(fake_result)
        assert "—" in text
        assert "inf" not in text


class TestJsonStrictness:
    def test_report_json_has_no_nonfinite_tokens(self, report):
        text = report_to_json(report)
        assert "Infinity" not in text
        assert "NaN" not in text


class TestCsvExport:
    def test_header_and_rows(self, report):
        text = report_to_csv(report)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 3
        assert rows[1][0] == "Football-010"

    def test_numeric_cells_parse(self, report):
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        for row in rows[1:]:
            for cell in row[1:]:
                float(cell)
