"""Tests for repro.adnetwork.billing."""

import random

import pytest

from repro.adnetwork.billing import (
    BillingLedger,
    CampaignBillingSummary,
    Charge,
    Refund,
)


class _FakePageview:
    def __init__(self, is_bot):
        self.is_bot = is_bot


class _FakeCampaign:
    def __init__(self, cid):
        self.campaign_id = cid


class _FakeImpression:
    def __init__(self, cid, is_bot, price=0.0001):
        self.campaign = _FakeCampaign(cid)
        self.pageview = _FakePageview(is_bot)
        self.price_eur = price


class TestLedger:
    def test_charge_accumulation(self):
        ledger = BillingLedger()
        ledger.charge("a", 1, 0.10, 0.0)
        ledger.charge("a", 2, 0.20, 1.0)
        ledger.charge("b", 3, 0.50, 2.0)
        assert ledger.charged_total("a") == pytest.approx(0.30)
        assert ledger.charged_total("b") == pytest.approx(0.50)
        assert ledger.charged_total("c") == 0.0

    def test_charge_validation(self):
        with pytest.raises(ValueError):
            Charge("a", 1, -0.1, 0.0)
        with pytest.raises(ValueError):
            Refund("a", -0.1, 0)


class TestFraudRefunds:
    def test_full_detection_refunds_every_bot_impression(self):
        ledger = BillingLedger()
        impressions = ([_FakeImpression("a", is_bot=True)] * 10
                       + [_FakeImpression("a", is_bot=False)] * 10)
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(0),
                                             detection_rate=1.0)
        assert len(refunds) == 1
        assert refunds[0].covered_impressions == 10
        assert refunds[0].amount_eur == pytest.approx(10 * 0.0001)

    def test_zero_detection_refunds_nothing(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=True)] * 10
        assert ledger.apply_fraud_refunds(impressions, random.Random(0),
                                          detection_rate=0.0) == []

    def test_human_impressions_never_refunded(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=False)] * 50
        assert ledger.apply_fraud_refunds(impressions, random.Random(0),
                                          detection_rate=1.0) == []

    def test_refunds_grouped_per_campaign(self):
        ledger = BillingLedger()
        impressions = ([_FakeImpression("a", is_bot=True)] * 5
                       + [_FakeImpression("b", is_bot=True)] * 3)
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(0),
                                             detection_rate=1.0)
        assert sorted(r.campaign_id for r in refunds) == ["a", "b"]

    def test_refunds_recorded_on_ledger(self):
        ledger = BillingLedger()
        ledger.charge("a", 1, 0.0001, 0.0)
        ledger.apply_fraud_refunds([_FakeImpression("a", is_bot=True)],
                                   random.Random(0), detection_rate=1.0)
        assert ledger.refunded_total("a") > 0

    def test_partial_detection_is_partial(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=True) for _ in range(400)]
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(1),
                                             detection_rate=0.5)
        assert 120 < refunds[0].covered_impressions < 280

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            BillingLedger().apply_fraud_refunds([], random.Random(0),
                                                detection_rate=2.0)


class TestSummaries:
    def test_summaries_cover_charges_and_refunds(self):
        ledger = BillingLedger()
        ledger.charge("b", 1, 0.10, 0.0)
        ledger.charge("a", 2, 0.20, 1.0)
        ledger.refunds.append(Refund("a", 0.05, covered_impressions=3))
        summaries = ledger.summaries()
        assert list(summaries) == ["a", "b"]
        assert summaries["a"].charged_eur == pytest.approx(0.20)
        assert summaries["a"].refunded_eur == pytest.approx(0.05)
        assert summaries["a"].refund_covered_impressions == 3
        assert summaries["b"].refunded_eur == 0.0

    def test_refund_only_campaign_gets_a_summary(self):
        ledger = BillingLedger()
        ledger.refunds.append(Refund("x", 0.01, covered_impressions=1))
        assert ledger.summaries()["x"].charged_eur == 0.0

    def test_absorb_summary_preserves_query_surface(self):
        source = BillingLedger()
        source.charge("a", 1, 0.10, 0.0)
        source.charge("a", 2, 0.15, 1.0)
        source.refunds.append(Refund("a", 0.05, covered_impressions=2))
        target = BillingLedger()
        for summary in source.summaries().values():
            target.absorb_summary(summary)
        assert target.charged_total("a") == pytest.approx(
            source.charged_total("a"))
        assert target.refunded_total("a") == pytest.approx(
            source.refunded_total("a"))

    def test_absorbing_shards_in_order_is_deterministic(self):
        shards = []
        for seed in range(3):
            ledger = BillingLedger()
            ledger.charge("a", 1, 0.1 * (seed + 1), float(seed))
            shards.append(ledger.summaries())
        merged_one = BillingLedger()
        merged_two = BillingLedger()
        for shard in shards:
            for summary in shard.values():
                merged_one.absorb_summary(summary)
                merged_two.absorb_summary(summary)
        # Identical fold order -> bit-identical float totals.
        assert merged_one.charged_total("a") == merged_two.charged_total("a")

    def test_summary_validation(self):
        with pytest.raises(ValueError):
            CampaignBillingSummary("", 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            CampaignBillingSummary("a", -0.1, 0.0, 0)
        with pytest.raises(ValueError):
            CampaignBillingSummary("a", 0.0, 0.0, -1)
