"""Tests for repro.web.population — the publisher universe."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import CumulativeSampler, zipf_weights
from repro.web.population import PublisherUniverse, UniverseConfig


class TestUniverseConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            UniverseConfig(publisher_count=0)
        with pytest.raises(ValueError):
            UniverseConfig(publisher_count=100, max_global_rank=50)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            UniverseConfig(anonymous_fraction=1.2)

    def test_rejects_unnormalised_country_shares(self):
        with pytest.raises(ValueError):
            UniverseConfig(country_shares=(("ES", 0.5), ("US", 0.2)))


class TestGeneration:
    def test_size_and_unique_domains(self, universe):
        assert len(universe) == 600
        domains = [publisher.domain for publisher in universe.publishers]
        assert len(domains) == len(set(domains))

    def test_ranks_sorted_by_popularity_index(self, universe):
        ranks = [publisher.global_rank for publisher in universe.publishers]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_ranks_span_orders_of_magnitude(self, universe):
        ranks = [publisher.global_rank for publisher in universe.publishers]
        assert min(ranks) < 1000
        assert max(ranks) > 1_000_000

    def test_every_publisher_has_topics_and_keywords(self, universe):
        for publisher in universe.publishers:
            assert publisher.topics
            assert publisher.keywords

    def test_topics_come_from_taxonomy(self, universe):
        tree = universe.lexicon.tree
        for publisher in universe.publishers:
            for topic in publisher.topics:
                assert topic in tree

    def test_unsafe_flag_matches_vertical(self, universe):
        tree = universe.lexicon.tree
        unsafe_nodes = set(tree.subtree("unsafe"))
        for publisher in universe.publishers:
            in_unsafe = all(topic in unsafe_nodes for topic in publisher.topics)
            assert publisher.unsafe == in_unsafe

    def test_popular_publishers_cost_more_on_average(self, universe):
        head = universe.publishers[:60]
        tail = universe.publishers[-60:]
        head_floor = sum(p.floor_cpm for p in head) / len(head)
        tail_floor = sum(p.floor_cpm for p in tail) / len(tail)
        assert head_floor > tail_floor * 2

    def test_premium_demand_declines_with_rank(self, universe):
        head = universe.publishers[:60]
        tail = universe.publishers[-60:]
        assert (sum(p.premium_demand for p in head)
                > sum(p.premium_demand for p in tail))

    def test_anonymous_and_blocking_fractions_plausible(self, universe):
        anonymous = sum(p.is_anonymous for p in universe.publishers) / len(universe)
        blocking = sum(p.blocks_scripts for p in universe.publishers) / len(universe)
        assert 0.04 < anonymous < 0.20
        assert 0.08 < blocking < 0.25

    def test_deterministic_generation(self, lexicon):
        a = PublisherUniverse(random.Random(5),
                              UniverseConfig(publisher_count=50), lexicon)
        b = PublisherUniverse(random.Random(5),
                              UniverseConfig(publisher_count=50), lexicon)
        assert [p.domain for p in a.publishers] == [p.domain for p in b.publishers]


class TestSampling:
    def test_popularity_sampling_is_head_heavy(self, universe):
        rng = random.Random(17)
        head_domains = {p.domain for p in universe.publishers[:60]}
        hits = sum(universe.sample_pageview_publisher(rng).domain in head_domains
                   for _ in range(3000))
        assert hits / 3000 > 0.2   # 10% of publishers draw >20% of traffic

    def test_interest_bias_enriches_matching_topics(self, universe):
        rng = random.Random(23)
        interests = ("football",)
        biased = sum("football" in universe.sample_pageview_publisher(
            rng, interests=interests).topics for _ in range(2000))
        unbiased = sum("football" in universe.sample_pageview_publisher(
            rng).topics for _ in range(2000))
        assert biased > unbiased * 1.5

    def test_country_bias(self, universe):
        rng = random.Random(29)
        local = sum(universe.sample_pageview_publisher(
            rng, country="ES").country_focus in ("ES", "GLOBAL")
            for _ in range(2000))
        assert local / 2000 > 0.8

    def test_matching_publishers_topic_index(self, universe):
        for publisher in universe.matching_publishers("football"):
            assert "football" in publisher.topics


def rejection_sample(universe, sampler, rng, interests, country, attempts):
    """``sample_pageview_publisher`` as written before accept tables."""
    choice = universe.publishers[sampler.sample(rng)]
    interest_set = set(interests)
    for _ in range(attempts):
        topical = interest_set.intersection(choice.topics)
        local = not country or choice.country_focus in (country, "GLOBAL")
        if (topical or not interest_set) and local:
            return choice
        choice = universe.publishers[sampler.sample(rng)]
    return choice


class TestAcceptMasks:
    @given(seed=st.integers(0, 2**32), data=st.data(),
           country=st.sampled_from(("", "ES", "RU", "US", "GLOBAL", "FR")),
           attempts=st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_same_draws_as_rejection_loop(self, universe, seed, data,
                                          country, attempts):
        topics = sorted({topic for p in universe.publishers
                         for topic in p.topics}) + ["no-such-topic"]
        interests = tuple(data.draw(st.lists(st.sampled_from(topics),
                                             max_size=4)))
        sampler = CumulativeSampler(zipf_weights(
            len(universe), universe.config.zipf_exponent))
        tabled, looped = random.Random(seed), random.Random(seed)
        for _ in range(25):
            assert universe.sample_pageview_publisher(
                tabled, interests, country, attempts) is rejection_sample(
                universe, sampler, looped, interests, country, attempts)
        assert tabled.getstate() == looped.getstate()

    @pytest.mark.parametrize("interests", [
        (), ("no-such-topic",), ("football",), ("football", "no-such-topic"),
        ("football", "football"), ("no-such-topic", "other-unknown")])
    @pytest.mark.parametrize("country", ["", "ES", "GLOBAL", "FR"])
    def test_edge_interests_and_countries(self, universe, interests, country):
        # Only publishers of the head rank are drawn often; walk the topics
        # of the most popular ones too, so their bits are exercised.
        head_topics = tuple(universe.publishers[0].topics)
        sampler = CumulativeSampler(zipf_weights(
            len(universe), universe.config.zipf_exponent))
        for wanted in (interests, interests + head_topics[:1]):
            for seed in range(20):
                tabled, looped = random.Random(seed), random.Random(seed)
                for _ in range(10):
                    assert universe.sample_pageview_publisher(
                        tabled, wanted, country) is rejection_sample(
                        universe, sampler, looped, wanted, country, 4)
                assert tabled.getstate() == looped.getstate()
