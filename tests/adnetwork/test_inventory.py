"""Tests for repro.adnetwork.inventory — requests and external demand."""

import random

import pytest

from repro.adnetwork.inventory import (
    AdRequest,
    ExternalDemand,
    ExternalDemandConfig,
    make_request,
)
from tests.adnetwork.conftest import make_pageview, make_publisher


class TestAdRequest:
    def test_make_request_scales_floor_to_market(self):
        pageview = make_pageview(make_publisher(floor_cpm=0.10))
        assert make_request(pageview, price_level=0.5).floor_cpm == pytest.approx(0.05)

    def test_rejects_nonpositive_price_level(self):
        with pytest.raises(ValueError):
            make_request(make_pageview(), price_level=0.0)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            AdRequest(pageview=make_pageview(), floor_cpm=-0.1)


class TestExternalDemandConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExternalDemandConfig(default_competition=-1)
        with pytest.raises(ValueError):
            ExternalDemandConfig(bid_over_floor_min=3, bid_over_floor_max=2)
        with pytest.raises(ValueError):
            ExternalDemandConfig(default_price_level=0)


class TestExternalDemand:
    def test_country_levels(self):
        demand = ExternalDemand()
        assert demand.competition_level("RU") < demand.competition_level("US")
        assert demand.price_level("RU") < demand.price_level("US")

    def test_unknown_country_uses_defaults(self):
        demand = ExternalDemand()
        assert demand.competition_level("XX") == demand.config.default_competition
        assert demand.price_level("XX") == demand.config.default_price_level

    def test_no_bid_when_no_premium_demand(self):
        demand = ExternalDemand()
        pageview = make_pageview(make_publisher(premium_demand=0.0),
                                 country="US")
        request = make_request(pageview)
        rng = random.Random(0)
        assert all(demand.sample_bid(request, rng) == 0.0 for _ in range(50))

    def test_bid_always_above_floor_when_present(self):
        demand = ExternalDemand()
        pageview = make_pageview(
            make_publisher(premium_demand=0.95, floor_cpm=0.10), country="US")
        request = make_request(pageview)
        rng = random.Random(1)
        bids = [demand.sample_bid(request, rng) for _ in range(300)]
        positive = [bid for bid in bids if bid > 0]
        assert positive
        assert all(bid > request.floor_cpm for bid in positive)

    def test_low_competition_market_sees_fewer_bids(self):
        demand = ExternalDemand()
        publisher = make_publisher(premium_demand=0.9, floor_cpm=0.10)
        rng = random.Random(2)
        us_hits = sum(demand.sample_bid(
            make_request(make_pageview(publisher, country="US")), rng) > 0
            for _ in range(500))
        ru_hits = sum(demand.sample_bid(
            make_request(make_pageview(publisher, country="RU")), rng) > 0
            for _ in range(500))
        assert ru_hits < us_hits * 0.6
