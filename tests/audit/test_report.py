"""Tests for repro.audit.report — the full-audit entry point."""

from repro.audit.context import ContextAudit
from repro.audit.report import full_audit


class TestFullAudit:
    def test_covers_every_campaign(self, dataset):
        report = full_audit(dataset)
        assert [r.campaign_id for r in report.campaigns] == [
            "Football-010", "Research-010"]

    def test_aggregate_venn_present(self, dataset):
        report = full_audit(dataset)
        assert report.aggregate_venn.audit_only == 3

    def test_blacklist_lists_unsafe_sites(self, dataset):
        report = full_audit(dataset)
        assert report.blacklist == ("casino-x.es",)

    def test_frequency_summary_included(self, dataset):
        report = full_audit(dataset)
        assert report.frequency.total_users == 5

    def test_render_mentions_key_sections(self, dataset):
        text = full_audit(dataset).render()
        assert "Brand safety" in text
        assert "Context (Table 2)" in text
        assert "Viewability" in text
        assert "Data-center traffic" in text
        assert "Frequency capping" in text
        assert "casino-x.es" in text

    def test_render_contains_campaign_rows(self, dataset):
        text = full_audit(dataset).render()
        assert text.count("Football-010") >= 4

    def test_judges_each_campaign_publisher_once(self, dataset,
                                                 monkeypatch):
        # The report and its reconciliation share one context audit, so
        # each (campaign, publisher) judgement is made once per pass.
        judged = []
        judge = ContextAudit._judge

        def counting_judge(audit, campaign_id, domain):
            judged.append((campaign_id, domain))
            return judge(audit, campaign_id, domain)

        monkeypatch.setattr(ContextAudit, "_judge", counting_judge)
        full_audit(dataset)
        assert judged
        assert len(judged) == len(set(judged))
