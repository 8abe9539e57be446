"""The per-request auction.

A simplified second-price auction over (our eligible campaigns + the
external-demand bid + the floor): highest CPM wins, pays the maximum of the
runner-up and the floor.  Exactly enough market microstructure for the
audit's questions — who won which pageview at what effective price.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import AdRequest, ExternalDemand
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one auction."""

    winner: Optional[CampaignSpec]   # None → external demand or no sale
    clearing_cpm: float
    external_bid_cpm: float
    contested: bool                  # an external bidder was present


class Auction:
    """Runs auctions between our campaigns and the external market."""

    def __init__(self, external: ExternalDemand,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.external = external
        self.tracer = tracer if tracer is not None else NULL_TRACER
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._auctions_run = metrics.counter("auction.runs")
        self._bids_evaluated = metrics.counter("auction.bids_evaluated")
        # Won by an audited campaign / lost to external demand or the floor.
        self._our_wins = metrics.counter("auction.our_wins")
        self._external_wins = metrics.counter("auction.external_wins")

    def run(self, request: AdRequest, candidates: Sequence[CampaignSpec],
            rng: random.Random) -> AuctionOutcome:
        """Auction one request among *candidates* (already deemed eligible).

        Ties between our campaigns break uniformly at random, mirroring
        rotation on equal bids.
        """
        outcome = self._decide(request, candidates, rng)
        self.tracer.event(
            "auction.decide", at=self.tracer.now,
            candidates=len(candidates),
            winner=outcome.winner.campaign_id if outcome.winner else "external",
            clearing_cpm=outcome.clearing_cpm,
            external_bid_cpm=outcome.external_bid_cpm,
            contested=outcome.contested)
        return outcome

    def _decide(self, request: AdRequest, candidates: Sequence[CampaignSpec],
                rng: random.Random) -> AuctionOutcome:
        self._auctions_run.inc()
        self._bids_evaluated.inc(len(candidates))
        external_bid = self.external.sample_bid(request, rng)
        best: Optional[CampaignSpec] = None
        if candidates:
            top_cpm = max(campaign.cpm_eur for campaign in candidates)
            leaders = [campaign for campaign in candidates
                       if campaign.cpm_eur == top_cpm]
            best = rng.choice(leaders)
        if best is None or best.cpm_eur < request.floor_cpm:
            self._external_wins.inc()
            return AuctionOutcome(winner=None,
                                  clearing_cpm=max(external_bid,
                                                   request.floor_cpm),
                                  external_bid_cpm=external_bid,
                                  contested=external_bid > 0.0)
        if external_bid >= best.cpm_eur:
            self._external_wins.inc()
            return AuctionOutcome(winner=None, clearing_cpm=external_bid,
                                  external_bid_cpm=external_bid,
                                  contested=True)
        runner_up = external_bid
        for campaign in candidates:
            if campaign is not best and campaign.cpm_eur > runner_up:
                runner_up = campaign.cpm_eur
        clearing = max(runner_up, request.floor_cpm)
        self._our_wins.inc()
        return AuctionOutcome(winner=best, clearing_cpm=min(clearing, best.cpm_eur),
                              external_bid_cpm=external_bid,
                              contested=external_bid > 0.0)
