"""Tests for repro.adnetwork.reporting — the vendor report under audit."""

import pytest

from repro.adnetwork.matching import MatchDecision, MatchReason
from repro.adnetwork.reporting import (
    ANONYMOUS_PLACEMENT,
    PlacementRow,
    ReportAggregate,
    VendorReporter,
    merge_aggregates,
)
from repro.adnetwork.server import DeliveredImpression
from repro.adnetwork.viewability import Exposure
from tests.adnetwork.conftest import make_pageview, make_publisher


def make_impression(campaign, impression_id=1, publisher=None,
                    viewable=True, reason=MatchReason.CONTEXTUAL):
    pageview = make_pageview(publisher or make_publisher())
    exposure = Exposure(render_delay=0.5,
                        exposure_seconds=5.0 if viewable else 0.2,
                        pixels_in_view=viewable)
    return DeliveredImpression(
        impression_id=impression_id,
        campaign=campaign,
        pageview=pageview,
        exposure=exposure,
        match=MatchDecision(eligible=True, reason=reason),
        clearing_cpm=0.05,
    )


class TestPlacementRow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementRow(placement="", impressions=1)
        with pytest.raises(ValueError):
            PlacementRow(placement="a.es", impressions=0)

    def test_anonymous_flag(self):
        assert PlacementRow(ANONYMOUS_PLACEMENT, 5).is_anonymous
        assert not PlacementRow("a.es", 5).is_anonymous


class TestVendorReporter:
    def test_totals_count_all_impressions(self, football_campaign):
        impressions = [make_impression(football_campaign, i, viewable=i % 2 == 0)
                       for i in range(1, 11)]
        report = VendorReporter().report("Football-010", impressions)
        assert report.total_impressions == 10

    def test_placements_cover_only_viewable(self, football_campaign):
        viewable_pub = make_publisher(domain="seen.es")
        hidden_pub = make_publisher(domain="unseen.es")
        impressions = [
            make_impression(football_campaign, 1, viewable_pub, viewable=True),
            make_impression(football_campaign, 2, hidden_pub, viewable=False),
        ]
        report = VendorReporter().report("Football-010", impressions)
        assert report.reported_publishers == {"seen.es"}
        assert [row.impressions for row in report.placements] == [1]

    def test_viewable_only_policy_can_be_disabled(self, football_campaign):
        hidden_pub = make_publisher(domain="unseen.es")
        impressions = [make_impression(football_campaign, 1, hidden_pub,
                                       viewable=False)]
        reporter = VendorReporter(viewable_only_placements=False)
        report = reporter.report("Football-010", impressions)
        assert report.reported_publishers == {"unseen.es"}

    def test_anonymous_publishers_aggregate(self, football_campaign):
        anonymous_a = make_publisher(domain="anon-a.es", is_anonymous=True)
        anonymous_b = make_publisher(domain="anon-b.es", is_anonymous=True)
        impressions = [
            make_impression(football_campaign, 1, anonymous_a),
            make_impression(football_campaign, 2, anonymous_b),
            make_impression(football_campaign, 3),
        ]
        report = VendorReporter().report("Football-010", impressions)
        assert report.anonymous_impressions == 2
        assert "anon-a.es" not in report.reported_publishers
        assert ANONYMOUS_PLACEMENT not in report.reported_publishers

    def test_contextual_fraction_counts_claimed(self, football_campaign):
        impressions = [
            make_impression(football_campaign, 1, reason=MatchReason.CONTEXTUAL),
            make_impression(football_campaign, 2, reason=MatchReason.BEHAVIOURAL),
            make_impression(football_campaign, 3, reason=MatchReason.BROAD),
            make_impression(football_campaign, 4, reason=MatchReason.BROAD),
        ]
        report = VendorReporter().report("Football-010", impressions)
        assert report.contextual.numerator == 2
        assert report.contextual.denominator == 4

    def test_contextual_includes_nonviewable(self, football_campaign):
        impressions = [
            make_impression(football_campaign, 1, viewable=False,
                            reason=MatchReason.CONTEXTUAL),
        ]
        report = VendorReporter().report("Football-010", impressions)
        assert report.contextual.pct == 100.0

    def test_wrong_campaign_impression_rejected(self, football_campaign):
        impression = make_impression(football_campaign, 1)
        with pytest.raises(ValueError):
            VendorReporter().report("Other", [impression])

    def test_empty_campaign_report(self):
        report = VendorReporter().report("Empty", [])
        assert report.total_impressions == 0
        assert report.placements == ()
        assert report.contextual.value == 0.0

    def test_money_fields_carried(self, football_campaign):
        report = VendorReporter().report(
            "Football-010", [make_impression(football_campaign, 1)],
            charged_eur=1.5, refunded_eur=0.25)
        assert report.charged_eur == 1.5
        assert report.refunded_eur == 0.25


class TestReportAggregates:
    def test_report_equals_build_of_aggregate(self, football_campaign):
        impressions = [make_impression(football_campaign, i,
                                       viewable=i % 3 != 0)
                       for i in range(1, 13)]
        reporter = VendorReporter()
        direct = reporter.report("Football-010", impressions)
        via_aggregate = reporter.build(
            reporter.aggregate("Football-010", impressions))
        assert via_aggregate == direct

    def test_merged_shards_equal_single_pass(self, football_campaign):
        publishers = [make_publisher(domain=f"p{i}.es") for i in range(4)]
        impressions = [make_impression(football_campaign, i,
                                       publishers[i % 4],
                                       viewable=i % 2 == 0,
                                       reason=MatchReason.CONTEXTUAL
                                       if i % 3 == 0 else MatchReason.BROAD)
                       for i in range(1, 21)]
        reporter = VendorReporter()
        whole = reporter.aggregate("Football-010", impressions)
        shards = [reporter.aggregate("Football-010", impressions[i::3])
                  for i in range(3)]
        assert merge_aggregates(shards, "Football-010") == whole

    def test_merge_rejects_foreign_campaign(self, football_campaign):
        reporter = VendorReporter()
        aggregate = reporter.aggregate(
            "Football-010", [make_impression(football_campaign, 1)])
        with pytest.raises(ValueError):
            merge_aggregates([aggregate], "Other")

    def test_empty_merge_builds_empty_report(self):
        merged = merge_aggregates([], "Empty")
        report = VendorReporter.build(merged)
        assert report.total_impressions == 0
        assert report.placements == ()

    def test_aggregate_validation(self):
        with pytest.raises(ValueError):
            ReportAggregate("", 0, 0, ())
        with pytest.raises(ValueError):
            ReportAggregate("a", -1, 0, ())
