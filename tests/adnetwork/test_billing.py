"""Tests for repro.adnetwork.billing."""

import random

import pytest

from repro.adnetwork.billing import BillingLedger
from repro.obs.metrics import MetricsRegistry


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
        metrics = MetricsRegistry()
        ledger = BillingLedger(metrics=metrics)
        ledger.charge("a", 0.10, 0.0)
        ledger.charge("a", 0.20, 1.0)
        ledger.charge("b", 0.50, 2.0)
        count = metrics.snapshot().counter_value
        assert count("billing.charges") == 3
        assert count("billing.charged_eur") == pytest.approx(0.80)
        assert ledger.refunded == {}


class TestFraudRefunds:
    def test_full_detection_refunds_every_bot_impression(self):
        ledger = BillingLedger()
        impressions = ([_FakeImpression("a", is_bot=True)] * 10
                       + [_FakeImpression("a", is_bot=False)] * 10)
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(0),
                                             detection_rate=1.0)
        assert refunds == {"a": pytest.approx(10 * 0.0001)}

    def test_zero_detection_refunds_nothing(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=True)] * 10
        assert ledger.apply_fraud_refunds(impressions, random.Random(0),
                                          detection_rate=0.0) == {}

    def test_human_impressions_never_refunded(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=False)] * 50
        assert ledger.apply_fraud_refunds(impressions, random.Random(0),
                                          detection_rate=1.0) == {}

    def test_refunds_grouped_per_campaign(self):
        ledger = BillingLedger()
        impressions = ([_FakeImpression("a", is_bot=True)] * 5
                       + [_FakeImpression("b", is_bot=True)] * 3)
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(0),
                                             detection_rate=1.0)
        assert refunds == {"a": pytest.approx(5 * 0.0001),
                           "b": pytest.approx(3 * 0.0001)}

    def test_refunds_recorded_on_ledger(self):
        metrics = MetricsRegistry()
        ledger = BillingLedger(metrics=metrics)
        for _ in range(2):
            ledger.apply_fraud_refunds([_FakeImpression("a", is_bot=True)],
                                       random.Random(0), detection_rate=1.0)
        # Each pass adds one lump per campaign to the running total.
        assert ledger.refunded == {"a": 0.0001 + 0.0001}
        count = metrics.snapshot().counter_value
        assert count("billing.refunds") == 2
        assert count("billing.refunded_eur") == ledger.refunded["a"]

    def test_partial_detection_is_partial(self):
        ledger = BillingLedger()
        impressions = [_FakeImpression("a", is_bot=True) for _ in range(400)]
        refunds = ledger.apply_fraud_refunds(impressions, random.Random(1),
                                             detection_rate=0.5)
        assert 120 * 0.0001 < refunds["a"] < 280 * 0.0001

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            BillingLedger().apply_fraud_refunds([], random.Random(0),
                                                detection_rate=2.0)

