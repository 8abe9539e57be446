"""Tests for repro.audit.context — the Table 2 analysis."""

import pytest

from repro.audit.context import ContextAudit, ContextCriterion
from repro.taxonomy.similarity import max_lch_similarity


def _judge_reference(audit: ContextAudit, campaign_id: str,
                     domain: str) -> bool:
    """The judge written literally: full LCH cross-product per pair."""
    campaign = audit.dataset.campaigns[campaign_id]
    info = audit.dataset.publisher_info(domain)
    if info is None:
        return False
    criterion = audit.criterion
    if criterion.use_keyword_match:
        if any(info.matches_keyword(keyword)
               for keyword in campaign.keywords):
            return True
    if criterion.use_semantic_match:
        lexicon = audit.dataset.lexicon
        campaign_topics = lexicon.topics_of(list(campaign.keywords))
        publisher_topics = [topic for topic in info.topics
                            if topic in lexicon.tree]
        if campaign_topics and publisher_topics:
            score = max_lch_similarity(lexicon.tree, campaign_topics,
                                       publisher_topics)
            if score >= audit.lch_threshold:
                return True
    return False


class TestContextCriterion:
    def test_needs_at_least_one_rule(self):
        with pytest.raises(ValueError):
            ContextCriterion(use_keyword_match=False, use_semantic_match=False)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            ContextCriterion(max_path_edges=-1)


class TestPublisherMeaningful:
    def test_keyword_match(self, dataset):
        audit = ContextAudit(dataset)
        assert audit.publisher_meaningful("Football-010", "futbolhead.es")

    def test_semantic_match_one_edge(self, dataset):
        # la-liga is one edge below football.
        audit = ContextAudit(dataset)
        assert audit.publisher_meaningful("Football-010", "laliga-tail.es")

    def test_cross_vertical_rejected(self, dataset):
        audit = ContextAudit(dataset)
        assert not audit.publisher_meaningful("Football-010", "recetas.es")

    def test_unknown_publisher_conservatively_rejected(self, dataset):
        audit = ContextAudit(dataset)
        assert not audit.publisher_meaningful("Football-010", "missing.example")

    def test_keyword_only_criterion(self, dataset):
        audit = ContextAudit(dataset, ContextCriterion(
            use_semantic_match=False))
        assert audit.publisher_meaningful("Football-010", "futbolhead.es")
        assert not audit.publisher_meaningful("Football-010", "laliga-tail.es")

    def test_semantic_only_criterion(self, dataset):
        audit = ContextAudit(dataset, ContextCriterion(
            use_keyword_match=False, max_path_edges=1))
        assert audit.publisher_meaningful("Football-010", "laliga-tail.es")

    def test_wider_radius_admits_more(self, dataset):
        narrow = ContextAudit(dataset, ContextCriterion(max_path_edges=0))
        wide = ContextAudit(dataset, ContextCriterion(max_path_edges=2))
        # recipes is 2 edges from... no: recipes is under lifestyle/food;
        # football->recipes is far in any case.  Use research vs ciencia.
        assert wide.publisher_meaningful("Research-010", "ciencia.es")
        # Exact-topic-only still matches ciencia (topic == research).
        assert narrow.publisher_meaningful("Research-010", "ciencia.es")

    def test_threshold_value_exposed(self, dataset):
        audit = ContextAudit(dataset)
        assert audit.lch_threshold > 0

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_neighborhood_judge_equals_lch_reference(self, dataset, radius):
        # The optimized judge intersects taxonomy neighbourhoods; the
        # reference runs the original LCH cross-product.  Every
        # (campaign, domain) verdict in the dataset must agree.
        audit = ContextAudit(dataset, ContextCriterion(max_path_edges=radius))
        domains = {record.domain
                   for campaign_id in dataset.campaigns
                   for record in dataset.records(campaign_id)}
        domains.add("missing.example")
        for campaign_id in dataset.campaigns:
            for domain in sorted(domains):
                assert audit._judge(campaign_id, domain) == \
                    _judge_reference(audit, campaign_id, domain), \
                    (campaign_id, domain, radius)


class TestAssess:
    def test_football_fractions(self, dataset):
        result = ContextAudit(dataset).assess("Football-010")
        # 4 of 6 logged impressions on football-themed publishers.
        assert result.audit_fraction.numerator == 4
        assert result.audit_fraction.denominator == 6
        # Vendor claims 6/7.
        assert result.vendor_fraction.numerator == 6
        assert result.meaningful_publishers == 2
        assert result.observed_publishers == 3

    def test_research_fractions(self, dataset):
        result = ContextAudit(dataset).assess("Research-010")
        assert result.audit_fraction.numerator == 2   # ciencia.es only
        assert result.audit_fraction.denominator == 3

    def test_vendor_gap_positive_for_football(self, dataset):
        result = ContextAudit(dataset).assess("Football-010")
        assert result.vendor_fraction.pct > result.audit_fraction.pct

    def test_asks_about_each_publisher_once(self, dataset, monkeypatch):
        audit = ContextAudit(dataset)
        asked = []
        judge = audit.publisher_meaningful
        monkeypatch.setattr(
            audit, "publisher_meaningful",
            lambda campaign_id, domain: asked.append(domain)
            or judge(campaign_id, domain))
        result = audit.assess("Football-010")
        # 6 impressions on 3 publishers: one question per publisher.
        assert sorted(asked) == sorted(set(asked))
        assert len(asked) == result.observed_publishers == 3
