"""Tests for repro.audit.reconcile."""

import pytest

from repro.audit.reconcile import ReconciliationAudit


class TestReconciliation:
    def test_football_discrepancies(self, dataset):
        result = ReconciliationAudit(dataset).assess("Football-010")
        assert result.vendor_impressions == 7
        assert result.logged_impressions == 6
        assert result.publishers_unreported_by_vendor == 2
        assert result.logging_loss.numerator == 1
        assert result.logging_loss.denominator == 7

    def test_contextual_gap(self, dataset):
        result = ReconciliationAudit(dataset).assess("Football-010")
        # Vendor 6/7 ≈ 85.7 %, audit 4/6 ≈ 66.7 % -> gap ≈ 19 points.
        assert result.contextual_gap_points == pytest.approx(
            600 / 7 - 400 / 6, abs=0.01)

    def test_dc_cost_not_refunded(self, dataset):
        result = ReconciliationAudit(dataset).assess("Football-010")
        # estimated 0.0001 == refunded 0.0001 -> nothing outstanding.
        assert result.dc_cost_not_refunded_eur == pytest.approx(0.0)

    def test_missing_report_raises(self, dataset):
        audit = ReconciliationAudit(dataset)
        with pytest.raises(KeyError):
            audit.assess("missing")
