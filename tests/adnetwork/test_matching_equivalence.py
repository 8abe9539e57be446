"""Reference-vs-optimized equivalence for the targeting hot paths.

The optimized ``MatchEngine`` answers contextual and behavioural
questions via taxonomy-neighbourhood intersections; the reference
implementations below run the original LCH-style nested path-length
loops.  Every (campaign, publisher/interest) verdict must be identical.
"""

import itertools
import random

import pytest

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.matching import MatchEngine
from repro.taxonomy.lexicon import build_default_lexicon
from tests.adnetwork.conftest import START, END, make_publisher

KEYWORD_POOL = ["Football", "tennis", "recipes", "laptops", "sneakers",
                "mortgages", "madrid", "baking", "smartphones", "running"]


@pytest.fixture(scope="module")
def lexicon():
    return build_default_lexicon()


def _contextual_reference(engine: MatchEngine, campaign: CampaignSpec,
                          publisher) -> bool:
    """Nested-loop page classifier: every topic pair's path length."""
    if any(publisher.matches_keyword(keyword)
           for keyword in campaign.keywords):
        return True
    for campaign_topic in engine.campaign_topics(campaign):
        for publisher_topic in publisher.topics:
            if engine.tree.path_length_uncached(
                    campaign_topic,
                    publisher_topic) <= engine.vertical_radius_edges:
                return True
    return False


def _behavioural_match_reference(engine: MatchEngine, campaign: CampaignSpec,
                                 interests: tuple[str, ...]) -> bool:
    """Nested-loop profile matcher: an interest on or one edge from a
    campaign topic trips the behavioural signal."""
    campaign_topics = engine.campaign_topics(campaign)
    if not campaign_topics or not interests:
        return False
    interest_set = set(interests)
    for topic in campaign_topics:
        if topic in interest_set:
            return True
        for interest in interest_set:
            if engine.tree.path_length_uncached(topic, interest) <= 1:
                return True
    return False


def _campaigns(lexicon):
    rng = random.Random(42)
    campaigns = []
    for index in range(12):
        count = rng.randrange(1, 4)
        keywords = tuple(rng.sample(KEYWORD_POOL, count))
        campaigns.append(CampaignSpec(
            campaign_id=f"Equiv-{index:03d}", keywords=keywords,
            cpm_eur=0.10, target_countries=("ES",),
            start_unix=START, end_unix=END, daily_budget_eur=5.0))
    return campaigns


def _publishers(lexicon):
    rng = random.Random(43)
    topics = sorted(lexicon.tree)
    publishers = []
    for index in range(25):
        topic_count = rng.randrange(1, 4)
        keyword_count = rng.randrange(0, 3)
        publishers.append(make_publisher(
            domain=f"site{index}.es",
            topics=tuple(rng.sample(topics, topic_count)),
            keywords=tuple(rng.sample([k.lower() for k in KEYWORD_POOL],
                                      keyword_count))))
    return publishers


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_contextual_match_equals_reference(lexicon, radius):
    engine = MatchEngine(lexicon, vertical_radius_edges=radius)
    for campaign, publisher in itertools.product(_campaigns(lexicon),
                                                 _publishers(lexicon)):
        optimized = engine.contextual_match(campaign, publisher)
        reference = _contextual_reference(engine, campaign, publisher)
        assert optimized == reference, \
            (campaign.keywords, publisher.topics, publisher.keywords, radius)


def test_behavioural_match_equals_reference(lexicon):
    engine = MatchEngine(lexicon)
    rng = random.Random(44)
    topics = sorted(lexicon.tree)
    interest_sets = [()] + [tuple(rng.sample(topics, rng.randrange(1, 5)))
                            for _ in range(30)]
    for campaign, interests in itertools.product(_campaigns(lexicon),
                                                 interest_sets):
        optimized = engine.behavioural_match(campaign, interests)
        reference = _behavioural_match_reference(engine, campaign,
                                                 interests)
        assert optimized == reference, (campaign.keywords, interests)
