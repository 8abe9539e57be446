"""Tests for repro.adnetwork.auction."""

import random

import pytest

from repro.adnetwork.auction import Auction
from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import (
    ExternalDemand,
    ExternalDemandConfig,
    make_request,
)
from tests.adnetwork.conftest import END, START, make_pageview, make_publisher


def campaign(cid, cpm):
    return CampaignSpec(campaign_id=cid, keywords=("Football",), cpm_eur=cpm,
                        target_countries=("ES",), start_unix=START,
                        end_unix=END)


def no_external():
    return ExternalDemand(ExternalDemandConfig(
        competition_by_country=(("ES", 0.0),), default_competition=0.0))


class TestAuction:
    def test_highest_cpm_wins(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.01)))
        outcome = auction.run(request, [campaign("a", 0.10),
                                        campaign("b", 0.30)],
                              random.Random(0))
        assert outcome.winner.campaign_id == "b"

    def test_second_price_clearing(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.01)))
        outcome = auction.run(request, [campaign("a", 0.10),
                                        campaign("b", 0.30)],
                              random.Random(0))
        assert outcome.clearing_cpm == pytest.approx(0.10)

    def test_sole_bidder_clears_at_floor(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.05)))
        outcome = auction.run(request, [campaign("a", 0.30)], random.Random(0))
        assert outcome.winner.campaign_id == "a"
        assert outcome.clearing_cpm == pytest.approx(0.05)

    def test_bid_below_floor_loses(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.50)))
        outcome = auction.run(request, [campaign("a", 0.10)], random.Random(0))
        assert outcome.winner is None

    def test_no_candidates_no_sale(self):
        auction = Auction(no_external())
        request = make_request(make_pageview())
        outcome = auction.run(request, [], random.Random(0))
        assert outcome.winner is None

    def test_external_bid_above_our_cpm_takes_slot(self):
        # premium 1.0, competition forced via default, large floor multiplier
        demand = ExternalDemand(ExternalDemandConfig(
            competition_by_country=(("ES", 1.0),),
            bid_over_floor_min=100.0, bid_over_floor_max=100.0))
        auction = Auction(demand)
        request = make_request(make_pageview(
            make_publisher(premium_demand=1.0, floor_cpm=0.10)))
        outcome = auction.run(request, [campaign("a", 0.30)], random.Random(0))
        assert outcome.winner is None
        assert outcome.contested
        assert outcome.external_bid_cpm == pytest.approx(10.0)

    def test_we_beat_weak_external_bid(self):
        demand = ExternalDemand(ExternalDemandConfig(
            competition_by_country=(("ES", 1.0),),
            bid_over_floor_min=1.1, bid_over_floor_max=1.1))
        auction = Auction(demand)
        request = make_request(make_pageview(
            make_publisher(premium_demand=1.0, floor_cpm=0.01)))
        outcome = auction.run(request, [campaign("a", 0.30)], random.Random(0))
        assert outcome.winner.campaign_id == "a"
        assert outcome.contested
        # Second price: pay the external runner-up.
        assert outcome.clearing_cpm == pytest.approx(0.011)

    def test_clearing_never_exceeds_winner_bid(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.01)))
        for seed in range(20):
            outcome = auction.run(request, [campaign("a", 0.10),
                                            campaign("b", 0.10)],
                                  random.Random(seed))
            assert outcome.clearing_cpm <= 0.10 + 1e-12

    def test_equal_bids_rotate(self):
        auction = Auction(no_external())
        request = make_request(make_pageview(make_publisher(floor_cpm=0.01)))
        rng = random.Random(3)
        winners = {auction.run(request, [campaign("a", 0.10),
                                         campaign("b", 0.10)], rng)
                   .winner.campaign_id for _ in range(50)}
        assert winners == {"a", "b"}
