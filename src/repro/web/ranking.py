"""Alexa-like popularity ranking service.

The popularity audit (Figure 2) buckets publishers by their global Alexa
rank.  This service answers ``rank_of(domain)`` queries over the synthetic
universe and provides the log-bucket machinery shared by the audit and the
figures.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.util.stats import log_buckets
from repro.web.publisher import Publisher


class RankingService:
    """Domain → global rank index.

    >>> pub = Publisher(domain="example.com", global_rank=42,
    ...                 country_focus="ES", topics=("news",), keywords=("news",))
    >>> service = RankingService([pub])
    >>> service.rank_of("example.com")
    42
    >>> service.rank_of("unknown.org") is None
    True
    """

    def __init__(self, publishers: Iterable[Publisher],
                 max_rank: int = 10_000_000) -> None:
        self._rank: dict[str, int] = {}
        for publisher in publishers:
            if publisher.domain in self._rank:
                raise ValueError(f"duplicate domain: {publisher.domain}")
            self._rank[publisher.domain] = publisher.global_rank
        self.max_rank = max(max_rank, max(self._rank.values(), default=1))

    def __len__(self) -> int:
        return len(self._rank)

    def rank_of(self, domain: str) -> Optional[int]:
        """Global rank of *domain*; None when the domain is unranked."""
        return self._rank.get(domain.lower())

    def bucket_edges(self, first_edge: int = 100) -> list[int]:
        """Logarithmic rank bucket edges up to the service's max rank."""
        return log_buckets(self.max_rank, base=10, first_edge=first_edge)

    @staticmethod
    def bucket_label(edges: list[int], index: int) -> str:
        """Human-readable label for a bucket, e.g. ``'(1K, 10K]'``."""

        def human(value: int) -> str:
            if value >= 1_000_000:
                return f"{value // 1_000_000}M"
            if value >= 1_000:
                return f"{value // 1_000}K"
            return str(value)

        if index == 0:
            return f"[1, {human(edges[0])}]"
        return f"({human(edges[index - 1])}, {human(edges[index])}]"
