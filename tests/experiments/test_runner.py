"""Tests for repro.experiments.runner over a miniature world.

One small experiment run is shared by the whole module (and by the
tables/figures tests via the session fixture in tests/experiments/conftest).
"""

from repro.adnetwork.reporting import ANONYMOUS_PLACEMENT


class TestRunnerOutputs:
    def test_every_campaign_delivered_and_logged(self, small_result):
        for campaign_id in small_result.dataset.campaign_ids:
            assert small_result.delivered(campaign_id) > 0
            assert small_result.logged(campaign_id) > 0

    def test_logging_loss_within_error_model(self, small_result):
        delivered = small_result.stats["delivered"]
        logged = small_result.stats["logged"]
        # Publisher blocking (~15 %) + browser/network losses: expect
        # roughly 70-95 % of delivered impressions to be logged.
        assert 0.65 * delivered < logged < 0.95 * delivered

    def test_vendor_reports_exist_for_all_campaigns(self, small_result):
        for campaign_id in small_result.dataset.campaign_ids:
            report = small_result.dataset.require_report(campaign_id)
            assert report.total_impressions == small_result.delivered(campaign_id)

    def test_unrefunded_campaign_reports_int_zero(self, small_result):
        # The merged books start each sum from int 0 and add only shards
        # that refunded, so the audit exports print a campaign nothing was
        # refunded for as 0, not 0.0.
        reports = small_result.dataset.vendor_reports.values()
        unrefunded = [report for report in reports if not report.refunded_eur]
        assert unrefunded
        assert all(type(report.refunded_eur) is int for report in unrefunded)

    def test_dataset_is_enriched_and_anonymised(self, small_result):
        for record in small_result.dataset.store:
            assert record.ip == ""
            assert record.ip_token
            assert record.is_datacenter is not None

    def test_impressions_within_campaign_flights(self, small_result):
        for campaign_id in small_result.dataset.campaign_ids:
            campaign = small_result.dataset.campaigns[campaign_id]
            for record in small_result.dataset.records(campaign_id):
                assert campaign.start_unix <= record.timestamp \
                    <= campaign.end_unix + 3600

    def test_geo_targeting_respected(self, small_result):
        # Russia campaign records come only from RU-resolved IPs (humans)
        # or RU-located data centers (bots).
        for record in small_result.dataset.records("Russia"):
            assert record.country in ("RU",)

    def test_vendor_misses_publishers_the_audit_saw(self, small_result):
        audit_pubs = small_result.dataset.audit_publishers()
        vendor_pubs = small_result.dataset.vendor_publishers()
        assert len(audit_pubs - vendor_pubs) > 0

    def test_anonymous_inventory_aggregated(self, small_result):
        rows = [row for report in
                small_result.dataset.vendor_reports.values()
                for row in report.placements]
        names = {row.placement for row in rows}
        anonymous = {name for name in names if name == ANONYMOUS_PLACEMENT}
        # Anonymous sellers exist in the world, so the aggregate row shows up.
        assert anonymous

    def test_some_bot_traffic_survives_prefilter(self, small_result):
        dc_records = [record for record in small_result.dataset.store
                      if record.is_datacenter]
        assert dc_records
        assert small_result.stats["prefiltered"] > 0

    def test_deterministic_given_seed(self, small_config):
        from repro.experiments import ExperimentRunner

        again = ExperimentRunner(small_config).run()
        first_ids = [record.url for record in again.dataset.store][:50]
        # Compare against a second fresh run with the same seed.
        third = ExperimentRunner(small_config).run()
        assert first_ids == [record.url for record in third.dataset.store][:50]

    def test_no_delivery_objects_survive_the_merge(self, small_result):
        # Deliveries stay in their shard; the merge keeps only the coverage
        # ledger's counts.  Walk everything the result references, without
        # descending into classes, modules or function globals.
        import gc
        import types

        from repro.adnetwork.server import DeliveredImpression
        from repro.web.browsing import Pageview

        seen: set[int] = set()
        stack: list = [small_result]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (DeliveredImpression, Pageview)), obj
            if isinstance(obj, (type, types.ModuleType)):
                continue
            if isinstance(obj, types.FunctionType):
                stack.extend(cell.cell_contents
                             for cell in obj.__closure__ or ())
                continue
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 10_000   # the walk reached the store and traces

    def test_stats_accounting(self, small_result):
        stats = small_result.stats
        assert stats["pageviews"] > stats["delivered"] > stats["logged"] > 0
        assert stats["script_blocked_publisher"] > 0


class TestConversions:
    def test_conversion_log_is_anonymised(self, small_result):
        for event in small_result.conversions:
            assert event.ip == ""
            assert event.ip_token

    def test_conversions_only_from_clicked_campaigns(self, small_result):
        from repro.audit import ConversionAudit

        audit = ConversionAudit(small_result.dataset,
                                small_result.conversions)
        for row in audit.table():
            assert row.conversions <= max(row.clicks, len(
                small_result.conversions))

    def test_click_and_conversion_stats_recorded(self, small_result):
        assert "clicks" in small_result.stats
        assert "conversions" in small_result.stats
        assert small_result.stats["conversions"] <= small_result.stats["clicks"]
