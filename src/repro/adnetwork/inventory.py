"""Ad requests and external demand.

Every pageview produces one ad request (the slot our campaigns can win).
The request carries the publisher's floor price; :class:`ExternalDemand`
models everyone else bidding on GDN — the premium advertisers who normally
take the popular inventory and leave the long tail as remnant.

This competition model is the engine behind Figure 2's counter-intuitive
result: on a top-ranked publisher the slot is usually taken by premium
demand regardless of whether our campaign bids 0.10 € or 0.30 € CPM, so a
30× CPM increase buys mid-tail volume, not popularity.  In low-competition
markets (the paper's Russia campaign at 0.01 €) premium demand rarely shows
up and even a minimal bid wins top sites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.web.browsing import Pageview


@dataclass(frozen=True)
class AdRequest:
    """One biddable slot on one pageview."""

    pageview: Pageview
    floor_cpm: float

    def __post_init__(self) -> None:
        if self.floor_cpm < 0:
            raise ValueError("floor_cpm must be non-negative")


@dataclass(frozen=True)
class ExternalDemandConfig:
    """Market-competition knobs, per country."""

    #: Multiplier on the publisher's ``premium_demand`` probability.
    competition_by_country: tuple[tuple[str, float], ...] = (
        ("ES", 0.90), ("US", 1.10), ("RU", 0.30))
    default_competition: float = 0.7
    #: External bids land between these multiples of the floor CPM.
    bid_over_floor_min: float = 1.8
    bid_over_floor_max: float = 10.0
    #: Inventory price level per market: the same publisher tier clears far
    #: cheaper in low-demand markets (why a 0.01 € CPM buys top-ranked
    #: Russian inventory but almost nothing in the US).
    price_level_by_country: tuple[tuple[str, float], ...] = (
        ("ES", 0.55), ("US", 1.00), ("RU", 0.03))
    default_price_level: float = 0.6

    def __post_init__(self) -> None:
        if self.default_competition < 0:
            raise ValueError("default_competition must be non-negative")
        if not 0 < self.bid_over_floor_min <= self.bid_over_floor_max:
            raise ValueError("invalid bid-over-floor range")
        if self.default_price_level <= 0:
            raise ValueError("default_price_level must be positive")


class ExternalDemand:
    """Samples the rest-of-market bid (if any) for an ad request."""

    def __init__(self, config: ExternalDemandConfig | None = None) -> None:
        self.config = config or ExternalDemandConfig()
        self._competition = dict(self.config.competition_by_country)
        self._price_level = dict(self.config.price_level_by_country)

    def competition_level(self, country: str) -> float:
        """Market pressure multiplier for a country."""
        return self._competition.get(country, self.config.default_competition)

    def price_level(self, country: str) -> float:
        """Floor-price multiplier for a country's inventory."""
        return self._price_level.get(country, self.config.default_price_level)

    def sample_bid(self, request: AdRequest, rng: random.Random) -> float:
        """External top bid in EUR CPM; 0.0 when no external bidder shows up.

        The probability an external bidder contests the slot is the
        publisher's ``premium_demand`` scaled by the country's market
        pressure.
        """
        publisher = request.pageview.publisher
        pressure = self.competition_level(request.pageview.country)
        if rng.random() >= publisher.premium_demand * pressure:
            return 0.0
        spread = rng.uniform(self.config.bid_over_floor_min,
                             self.config.bid_over_floor_max)
        return request.floor_cpm * spread


def make_request(pageview: Pageview, price_level: float = 1.0) -> AdRequest:
    """Build the biddable request for a pageview.

    *price_level* scales the publisher's floor to the visitor's market.
    """
    if price_level <= 0:
        raise ValueError("price_level must be positive")
    return AdRequest(pageview=pageview,
                     floor_cpm=pageview.publisher.floor_cpm * price_level)
