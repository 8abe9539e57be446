"""Tests for repro.audit.fraud — the Table 4 analysis."""

import pytest

from repro.audit.fraud import FraudAudit
from repro.collector.store import ImpressionRecord, ImpressionStore


class TestFraudAudit:
    def test_football_dc_stats(self, dataset):
        stats = FraudAudit(dataset).assess("Football-010")
        # 3 distinct users/IP-tokens, one of them a DC bot.
        assert stats.dc_ips.numerator == 1
        assert stats.dc_ips.denominator == 3
        assert stats.dc_impressions.numerator == 1
        assert stats.dc_impressions.denominator == 6
        assert stats.dc_publishers.numerator == 1
        assert stats.dc_publishers.denominator == 3

    def test_clean_campaign_zeroes(self, dataset):
        stats = FraudAudit(dataset).assess("Research-010")
        assert stats.dc_impressions.numerator == 0
        assert stats.dc_ips.numerator == 0

    def test_cost_estimate_uses_cpm_bound(self, dataset):
        stats = FraudAudit(dataset).assess("Football-010")
        assert stats.estimated_cost_eur == pytest.approx(0.0001)

    def test_vendor_refund_carried(self, dataset):
        stats = FraudAudit(dataset).assess("Football-010")
        assert stats.vendor_refund_eur == pytest.approx(0.0001)

    def test_table_covers_all_campaigns(self, dataset):
        table = FraudAudit(dataset).table()
        assert [row.campaign_id for row in table] == ["Football-010",
                                                      "Research-010"]

    def test_stage_breakdown(self, dataset):
        breakdown = FraudAudit(dataset).stage_breakdown("Football-010")
        assert breakdown == {"denylist": 1}

    def test_unenriched_dataset_rejected(self, dataset):
        store = ImpressionStore()
        store.insert(ImpressionRecord(
            record_id=1, campaign_id="Football-010",
            creative_id="c", url="http://x.es/a", user_agent="UA",
            ip="2.0.0.1", timestamp=0.0, exposure_seconds=1.0))
        broken = replace_dataset(dataset, store)
        with pytest.raises(ValueError):
            FraudAudit(broken).assess("Football-010")


def replace_dataset(dataset, store):
    from repro.audit.dataset import AuditDataset

    return AuditDataset(
        store=store,
        campaigns=dataset.campaigns,
        vendor_reports=dataset.vendor_reports,
        directory=dataset.directory,
        lexicon=dataset.lexicon,
        ranking=dataset.ranking,
    )
