"""Publisher-popularity audit (paper Figure 2).

Distributes a campaign's publishers and impressions across logarithmic
Alexa-rank buckets and reports top-N concentration — the analysis behind
the paper's finding that a 30× CPM increase does not buy more popular
inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.dataset import AuditDataset, memoised
from repro.util.stats import bucket_index


@dataclass(frozen=True)
class RankDistribution:
    """Figure 2 series for one campaign."""

    campaign_id: str
    bucket_edges: tuple[int, ...]
    publisher_fractions: tuple[float, ...]
    impression_fractions: tuple[float, ...]
    unranked_publishers: int
    unranked_impressions: int

    def __post_init__(self) -> None:
        if len(self.publisher_fractions) != len(self.bucket_edges) or \
                len(self.impression_fractions) != len(self.bucket_edges):
            raise ValueError("fraction series must align with bucket edges")

    def cumulative_to(self, max_rank: int, series: str = "impressions") -> float:
        """Cumulative fraction at or better than *max_rank*.

        *series* is ``'impressions'`` or ``'publishers'``.  *max_rank* must
        be one of the bucket edges (the log buckets cannot be split).
        """
        if max_rank not in self.bucket_edges:
            raise ValueError(f"{max_rank} is not a bucket edge")
        fractions = self.impression_fractions if series == "impressions" \
            else self.publisher_fractions
        cutoff = self.bucket_edges.index(max_rank)
        return sum(fractions[: cutoff + 1])


class PopularityAudit:
    """Rank-bucket distributions over the enriched dataset."""

    def __init__(self, dataset: AuditDataset) -> None:
        self.dataset = dataset

    def bucket_edges(self, first_edge: int = 100) -> list[int]:
        """The shared logarithmic rank buckets (100, 1K, ..., max rank)."""
        return self.dataset.ranking.bucket_edges(first_edge=first_edge)

    @memoised
    def distribution(self, campaign_id: str,
                     first_edge: int = 100) -> RankDistribution:
        """Publisher and impression distributions for one campaign.

        Ranks come from the enriched record column when present and fall
        back to a live ranking lookup otherwise; publishers the ranking
        service does not know are counted separately as unranked.
        """
        rows = self.dataset.select(campaign_id, "domain", "global_rank")
        edges = self.bucket_edges(first_edge=first_edge)
        publisher_counts = [0] * len(edges)
        impression_counts = [0] * len(edges)
        unranked_impressions = 0
        seen_domains: dict[str, int | None] = {}
        for domain, record_rank in rows:
            if domain not in seen_domains:
                rank = record_rank
                if rank is None:
                    rank = self.dataset.ranking.rank_of(domain)
                seen_domains[domain] = rank
                if rank is not None:
                    publisher_counts[bucket_index(rank, edges)] += 1
            rank = seen_domains[domain]
            if rank is None:
                unranked_impressions += 1
            else:
                impression_counts[bucket_index(rank, edges)] += 1
        ranked_publishers = sum(publisher_counts)
        ranked_impressions = sum(impression_counts)
        unranked_publishers = sum(1 for rank in seen_domains.values()
                                  if rank is None)
        return RankDistribution(
            campaign_id=campaign_id,
            bucket_edges=tuple(edges),
            publisher_fractions=tuple(
                count / ranked_publishers if ranked_publishers else 0.0
                for count in publisher_counts),
            impression_fractions=tuple(
                count / ranked_impressions if ranked_impressions else 0.0
                for count in impression_counts),
            unranked_publishers=unranked_publishers,
            unranked_impressions=unranked_impressions,
        )

    def top_concentration(self, campaign_id: str,
                          max_rank: int = 100_000) -> tuple[float, float]:
        """(publisher share, impression share) at or better than *max_rank*.

        The paper quotes top-50K shares; our buckets are powers of ten so
        the closest available edge is used — callers pass an edge value.
        """
        distribution = self.distribution(campaign_id)
        return (distribution.cumulative_to(max_rank, "publishers"),
                distribution.cumulative_to(max_rank, "impressions"))

    def cpm_popularity_table(self, campaign_ids: list[str],
                             max_rank: int = 100_000
                             ) -> list[tuple[str, float, float, float]]:
        """Rows (campaign, cpm, publisher share, impression share) sorted
        by CPM — the direct test of "does more CPM buy popularity?"."""
        rows = []
        for campaign_id in campaign_ids:
            campaign = self.dataset.campaigns[campaign_id]
            publishers, impressions = self.top_concentration(campaign_id,
                                                             max_rank)
            rows.append((campaign_id, campaign.cpm_eur, publishers,
                         impressions))
        rows.sort(key=lambda row: row[1])
        return rows
