"""Property tests: the run's independent counts reconcile after the merge.

The merged result counts deliveries from the coverage ledger, which each
shard fills with one ``record_delivered`` per served impression.  The
vendor reports' ``total_impressions`` count the same deliveries
independently — each merges the shards' report aggregates, built from the
ad server's impression list — so the ledger-derived ``stats["delivered"]``
and ``delivered(campaign_id)`` must equal them under every fault preset.

The same runs check the pipeline's conservation laws: each quantity that
two stages count on their own (ad server, auction, billing and flight
recorder; collector and store; beacon script and coverage ledger;
conversion simulator and conversion log; shard plan and merge) comes out
equal in the merged metrics snapshot, ``stats`` and the event journal.
The vendor's books balance too: no campaign is refunded more than it was
charged, and the merged per-campaign totals add up to the billing and
pacing counters.
"""

import functools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adnetwork.conversions import ConversionConfig, ConversionSimulator
from repro.experiments import ExperimentRunner
from repro.experiments.config import paper_experiment
from repro.faults.plan import FaultPlan


def _run(seed, preset, scale):
    return ExperimentRunner(paper_experiment(
        seed=seed, scale=scale, faults=FaultPlan.preset(preset))).run()


def _assert_conservation_laws(result):
    count = result.metrics.counter_value
    stats = result.stats
    ledger = result.coverage.counts.totals()

    assert count("adserver.deliveries") == count("auction.our_wins") \
        == count("billing.charges") == count("trace.committed") \
        == stats["delivered"]
    assert count("beacon.blocked_publisher") \
        + count("beacon.blocked_browser") == ledger.lost_script_blocked
    assert count("collector.records_committed") == count("store.appends") \
        == stats["logged"]
    assert count("conversions.converted") == len(result.conversions) \
        <= count("conversions.clicks")
    names = Counter(event.name for event in result.events.sim_events())
    assert names["shard.merged"] + names["shard.lost"] \
        == names["shard.planned"] > 0
    _assert_books_balance(result)


def _assert_books_balance(result):
    count = result.metrics.counter_value
    reports = result.dataset.vendor_reports.values()
    for report in reports:
        assert 0 <= report.refunded_eur <= report.charged_eur
    charged = sum(report.charged_eur for report in reports)
    refunded = sum(report.refunded_eur for report in reports)
    assert math.isclose(charged, count("billing.charged_eur"))
    assert math.isclose(charged, count("pacing.spend_eur"))
    assert math.isclose(refunded, count("billing.refunded_eur"))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       preset=st.sampled_from(("none", "flaky", "hostile")))
def test_ledger_counts_equal_report_aggregate_totals(seed, preset):
    result = _run(seed, preset, scale=0.002)
    totals = {campaign_id: report.total_impressions for campaign_id, report
              in result.dataset.vendor_reports.items()}

    assert sum(totals.values()) > 0
    assert result.stats["delivered"] == sum(totals.values())
    for plan in result.config.campaigns:
        campaign_id = plan.spec.campaign_id
        assert result.delivered(campaign_id) == totals[campaign_id]
    _assert_conservation_laws(result)
    if preset == "none":
        assert result.stats["logged"] \
            == result.coverage.counts.totals().unique


@pytest.mark.parametrize("preset", ("none", "flaky", "hostile"))
def test_vendor_books_balance_under_every_fault_plan(preset):
    result = _run(2016, preset, scale=0.005)
    reports = result.dataset.vendor_reports
    assert any(report.refunded_eur > 0 for report in reports.values())
    for campaign_id, report in reports.items():
        assert report.total_impressions == result.delivered(campaign_id)
    _assert_books_balance(result)


@pytest.mark.xfail(strict=True, reason="a bit-flipped HELLO that still "
                   "parses commits a record the ledger does not count as "
                   "unique: 1,659 stored records against 1,655 unique "
                   "deliveries")
def test_stored_records_equal_unique_deliveries_under_bit_flips():
    result = _run(2016, "hostile", scale=0.01)
    assert result.stats["logged"] == result.coverage.counts.totals().unique


def test_converted_clicks_obey_the_law_and_merge_identically(monkeypatch):
    # At the default rate no tier-1 run converts a click, so the conversion
    # log's merge is only exercised with every human click converting.
    # Forked pool workers inherit the patched simulator.
    from repro.experiments import runner

    monkeypatch.setattr(runner, "ConversionSimulator", functools.partial(
        ConversionSimulator, ConversionConfig(human_conversion_rate=1.0)))
    config = paper_experiment(seed=2016, scale=0.01)
    serial = ExperimentRunner(config).run()
    pooled = ExperimentRunner(config, jobs=2).run()

    _assert_conservation_laws(serial)
    assert serial.metrics.counter_value("conversions.converted") > 0
    assert pooled.conversions == serial.conversions
