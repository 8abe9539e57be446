"""Tests for repro.web.ranking."""

import pytest

from repro.web.publisher import Publisher
from repro.web.ranking import RankingService


def make_publisher(domain, rank):
    return Publisher(domain=domain, global_rank=rank, country_focus="ES",
                     topics=("news",), keywords=("news",))


@pytest.fixture
def service():
    return RankingService([
        make_publisher("top.es", 42),
        make_publisher("mid.es", 45_000),
        make_publisher("tail.es", 3_200_000),
    ])


class TestRankingService:
    def test_rank_lookup(self, service):
        assert service.rank_of("top.es") == 42
        assert service.rank_of("TAIL.es") == 3_200_000

    def test_unknown_domain_is_none(self, service):
        assert service.rank_of("unknown.org") is None

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError):
            RankingService([make_publisher("a.es", 1),
                            make_publisher("a.es", 2)])

    def test_bucket_edges_reach_max_rank(self, service):
        edges = service.bucket_edges()
        assert edges[-1] >= service.max_rank
        assert edges[0] == 100

    def test_bucket_label_rendering(self):
        edges = [100, 1000, 10_000, 100_000, 1_000_000, 10_000_000]
        assert RankingService.bucket_label(edges, 0) == "[1, 100]"
        assert RankingService.bucket_label(edges, 2) == "(1K, 10K]"
        assert RankingService.bucket_label(edges, 5) == "(1M, 10M]"

    def test_len(self, service):
        assert len(service) == 3
