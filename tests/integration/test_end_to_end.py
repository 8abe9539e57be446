"""End-to-end integration: the paper's headline findings hold qualitatively
on the miniature world, and the full audit artifact assembles cleanly.
"""

import pytest

from repro.audit import full_audit
from repro.audit.brand_safety import BrandSafetyAudit
from repro.audit.context import ContextAudit
from repro.audit.fraud import FraudAudit
from repro.audit.frequency import FrequencyAudit
from repro.audit.viewability import ViewabilityAudit


@pytest.fixture(scope="module")
def report(small_result):
    return full_audit(small_result.dataset)


class TestHeadlineFindings:
    def test_finding_i_vendor_hides_publishers(self, small_result):
        """AdWords did not report a large share of delivering publishers."""
        venn = BrandSafetyAudit(small_result.dataset).venn(None)
        assert venn.unreported_by_vendor.pct > 25.0
        # And our own methodology misses some publishers too (§3.1).
        assert 2.0 < venn.unlogged_by_audit.pct < 35.0

    def test_finding_ii_contextual_claims_inflated(self, small_result):
        """The vendor claims more contextual delivery than page themes
        support, using its undisclosed behavioural criterion."""
        audit = ContextAudit(small_result.dataset)
        gaps = {}
        for campaign_id in small_result.dataset.campaign_ids:
            outcome = audit.assess(campaign_id)
            gaps[campaign_id] = (outcome.vendor_fraction.pct
                                 - outcome.audit_fraction.pct)
        # Most campaigns show the inflation (tiny campaigns are noisy at
        # this world scale), and the Football ones show it dramatically.
        assert sum(gap > 0 for gap in gaps.values()) >= 5
        assert gaps["Football-010"] > 15.0
        assert gaps["Football-030"] > 15.0

    def test_finding_iii_cpm_does_not_buy_popularity(self, small_result):
        """The 0.01-euro Russia campaign lands a larger share of its
        impressions on top-ranked publishers than the 0.30-euro one."""
        from repro.audit.popularity import PopularityAudit

        audit = PopularityAudit(small_result.dataset)
        cheap = audit.distribution("Russia").cumulative_to(100_000)
        expensive = audit.distribution("Football-030").cumulative_to(100_000)
        assert cheap > expensive

    def test_finding_iv_no_default_frequency_cap(self, small_result):
        """Users receive the same ad well beyond any sensible cap."""
        summary = FrequencyAudit(small_result.dataset).summary(None)
        assert summary.users_over_10 > 0
        assert summary.max_impressions_single_user > 20

    def test_finding_v_datacenter_traffic_served(self, small_result):
        """Football campaigns deliver a visible share of impressions to
        data-center IPs; the quiet campaigns stay lower."""
        audit = FraudAudit(small_result.dataset)
        football = audit.assess("Football-030").dc_impressions.pct
        general = audit.assess("General-010").dc_impressions.pct
        assert football > 2.0
        assert football > general

    def test_viewability_band_and_ordering(self, small_result):
        audit = ViewabilityAudit(small_result.dataset)
        values = {row.campaign_id: row.viewable_upper_bound.pct
                  for row in audit.table()}
        assert all(35.0 < value < 95.0 for value in values.values())
        football_avg = (values["Football-010"] + values["Football-030"]) / 2
        research_avg = (values["Research-010"] + values["Research-020"]) / 2
        assert football_avg > research_avg


class TestFullAuditArtifact:
    def test_report_assembles(self, report, small_result):
        assert len(report.campaigns) == 8
        assert report.aggregate_venn.union_total > 0

    def test_render_has_all_sections(self, report):
        text = report.render()
        for fragment in ("Brand safety", "Context", "Viewability",
                         "Data-center", "Frequency capping", "blacklist"):
            assert fragment in text

    def test_blacklist_contains_unsafe_domains(self, report, small_result):
        for domain in report.blacklist:
            info = small_result.dataset.publisher_info(domain)
            assert info is not None and info.unsafe


class TestDatasetPersistenceRoundtrip:
    def test_dump_load_preserves_audit_results(self, small_result, tmp_path):
        # An auditor who reloads the dumped dataset must reach exactly the
        # in-memory run's audit, tables and figures.
        from types import SimpleNamespace

        from repro.audit import AuditDataset
        from repro.audit.export import report_to_csv, report_to_json
        from repro.collector.store import ImpressionStore
        from repro.experiments import figures, tables

        dataset = small_result.dataset
        path = tmp_path / "dataset.jsonl"
        dataset.store.dump_jsonl(path)
        loaded = ImpressionStore.load_jsonl(path)
        loaded.seal()
        replayed = SimpleNamespace(
            dataset=AuditDataset(
                store=loaded,
                campaigns=dict(dataset.campaigns),
                vendor_reports=dict(dataset.vendor_reports),
                directory=dataset.directory,
                lexicon=dataset.lexicon,
                ranking=dataset.ranking),
            conversions=list(small_result.conversions))
        assert len(loaded) == len(dataset.store)

        def rendered(result):
            report = full_audit(result.dataset)
            return {
                "audit": report.render(),
                "json": report_to_json(report),
                "csv": report_to_csv(report),
                "table1": tables.render_table1(result),
                "table2": tables.render_table2(result),
                "table3": tables.render_table3(result),
                "table4": tables.render_table4(result),
                "funnel": tables.render_conversion_funnel(result),
                "figure1": figures.figure1(result).render(),
                "figure2": figures.figure2(result).render(),
                "figure3": figures.figure3(result).render(),
            }

        expected = rendered(small_result)
        actual = rendered(replayed)
        for name, text in expected.items():
            assert actual[name] == text, name
