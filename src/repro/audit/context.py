"""Context audit (paper Table 2).

Judges each publisher *contextually meaningful* for a campaign when

1. any of the publisher's keywords literally matches a campaign keyword, or
2. any of the publisher's topics is semantically similar to a campaign
   keyword, per Leacock–Chodorow similarity over the taxonomy (the
   criterion of Carrascosa et al. the paper adopts),

then reports the fraction of logged impressions that landed on meaningful
publishers, next to the fraction the vendor claims.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.audit.dataset import AuditDataset, memoised
from repro.taxonomy.similarity import similarity_threshold
from repro.util.stats import Fraction2


@dataclass(frozen=True)
class ContextCriterion:
    """Tunable decision rule for "contextually meaningful".

    ``max_path_edges`` sets the LCH acceptance bar as the similarity score
    of two concepts that many taxonomy edges apart.
    """

    use_keyword_match: bool = True
    use_semantic_match: bool = True
    max_path_edges: int = 1

    def __post_init__(self) -> None:
        if not (self.use_keyword_match or self.use_semantic_match):
            raise ValueError("criterion needs at least one match rule")
        if self.max_path_edges < 0:
            raise ValueError("max_path_edges must be non-negative")


@dataclass(frozen=True)
class ContextResult:
    """Table 2 row for one campaign."""

    campaign_id: str
    audit_fraction: Fraction2       # of logged impressions
    vendor_fraction: Fraction2      # of vendor-reported impressions
    meaningful_publishers: int
    observed_publishers: int


class ContextAudit:
    """Publisher-theme relevance assessment."""

    def __init__(self, dataset: AuditDataset,
                 criterion: ContextCriterion | None = None) -> None:
        self.dataset = dataset
        self.criterion = criterion or ContextCriterion()
        self._threshold = similarity_threshold(
            dataset.lexicon.tree, self.criterion.max_path_edges)
        self._cache: dict[tuple[str, str], bool] = {}
        self._neighborhoods: dict[str, frozenset[str]] = {}

    @property
    def lch_threshold(self) -> float:
        """The LCH score a topic pair must reach under criterion 2."""
        return self._threshold

    def publisher_meaningful(self, campaign_id: str, domain: str) -> bool:
        """Is *domain* contextually meaningful for the campaign?

        Publishers absent from the directory (no vendor-assigned keywords,
        nothing to crawl) are conservatively judged not meaningful.
        """
        key = (campaign_id, domain)
        if key not in self._cache:
            self._cache[key] = self._judge(campaign_id, domain)
        return self._cache[key]

    def _judge(self, campaign_id: str, domain: str) -> bool:
        campaign = self.dataset.campaigns[campaign_id]
        info = self.dataset.publisher_info(domain)
        if info is None:
            return False
        criterion = self.criterion
        if criterion.use_keyword_match:
            if any(info.matches_keyword(keyword)
                   for keyword in campaign.keywords):
                return True
        if criterion.use_semantic_match:
            # ``max LCH >= threshold`` over the topic cross-product is
            # exactly ``some pair within max_path_edges edges`` (LCH is a
            # strictly decreasing function of path length, and the
            # threshold is the score at max_path_edges), so the semantic
            # rule is one intersection against the campaign topics'
            # taxonomy neighbourhood — the tree-level memo the matching
            # engine shares — instead of an LCH cross-product per pair.
            neighborhood = self._campaign_neighborhood(campaign_id)
            if any(topic in neighborhood for topic in info.topics):
                return True
        return False

    def _campaign_neighborhood(self, campaign_id: str) -> frozenset[str]:
        """Radius-``max_path_edges`` neighbourhood of the campaign topics."""
        cached = self._neighborhoods.get(campaign_id)
        if cached is None:
            lexicon = self.dataset.lexicon
            campaign = self.dataset.campaigns[campaign_id]
            nodes: set[str] = set()
            for topic in lexicon.campaign_topics(campaign_id,
                                                 campaign.keywords):
                nodes.update(lexicon.tree.nodes_within(
                    topic, self.criterion.max_path_edges))
            cached = frozenset(nodes)
            self._neighborhoods[campaign_id] = cached
        return cached

    @memoised
    def assess(self, campaign_id: str) -> ContextResult:
        """The Table 2 comparison for one campaign."""
        rows = self.dataset.select(campaign_id, "domain")
        # Impressions per publisher, so each publisher is judged once.
        impressions = Counter(rows)
        meaningful_impressions = 0
        meaningful_publishers = 0
        for (domain,), count in impressions.items():
            if self.publisher_meaningful(campaign_id, domain):
                meaningful_impressions += count
                meaningful_publishers += 1
        report = self.dataset.vendor_reports.get(campaign_id)
        vendor_fraction = report.contextual if report else Fraction2(0, 0)
        if rows:
            audit_fraction = Fraction2(meaningful_impressions, len(rows))
        else:
            audit_fraction = Fraction2(0, 0)
        return ContextResult(
            campaign_id=campaign_id,
            audit_fraction=audit_fraction,
            vendor_fraction=vendor_fraction,
            meaningful_publishers=meaningful_publishers,
            observed_publishers=len(impressions),
        )
