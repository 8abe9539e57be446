"""The ad server: turns pageviews into delivered impressions.

Orchestrates the vendor-side pipeline for every pageview: geo resolution
(via the network's own IP database), the network's proprietary invalid-
traffic prefilter, budget pacing, targeting, the auction, and the exposure
model.  Emits :class:`DeliveredImpression` ground-truth records; what the
*advertiser* gets to see of them is decided later by
:mod:`repro.adnetwork.reporting` and, independently, by the beacon pipeline.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.adnetwork.auction import Auction
from repro.adnetwork.billing import BillingLedger
from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import ExternalDemand, make_request
from repro.adnetwork.matching import (BEHAVIOURAL_MATCH, CONTEXTUAL_MATCH,
                                      MatchDecision, MatchEngine)
from repro.adnetwork.pacing import BudgetPacer
from repro.adnetwork.viewability import Exposure, ExposureModel
from repro.geo.ipdb import GeoIpDatabase
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.web.browsing import Pageview


@dataclass(frozen=True)
class DeliveredImpression:
    """Ground truth for one ad actually rendered on a page.

    This record belongs to the *simulation*, not to any observer: the
    vendor report projects one (lossy) view of it, the beacon dataset
    another.  The audit's job is to compare those two projections.
    """

    impression_id: int
    campaign: CampaignSpec
    pageview: Pageview
    exposure: Exposure
    match: MatchDecision
    clearing_cpm: float

    @property
    def price_eur(self) -> float:
        """What the advertiser was charged for this impression."""
        return self.clearing_cpm / 1000.0


@dataclass(frozen=True)
class NetworkPolicy:
    """The vendor's (non-disclosed) operating policies.

    ``ivt_prefilter_rate`` is the share of invalid traffic the network's
    proprietary detection stops *before* the auction; the remainder is
    served and charged.  ``default_frequency_cap`` is None — the paper's
    finding (iv): AdWords applies no cap unless the advertiser sets one.
    """

    ivt_prefilter_rate: float = 0.35
    default_frequency_cap: Optional[int] = None
    #: Run-of-network expansion: broad eligibility ramps from the base rate
    #: toward the max rate as a campaign falls behind its budget schedule —
    #: but only to the extent its *matched* inventory is scarce.  Campaigns
    #: whose keyword/audience supply reaches ``matched_supply_ref`` of
    #: traffic never expand (Football); campaigns with almost no matched
    #: inventory (Research) are effectively run-of-network.
    broad_base_rate: float = 0.01
    broad_max_rate: float = 0.9
    matched_supply_ref: float = 0.08
    min_supply_samples: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.ivt_prefilter_rate <= 1.0:
            raise ValueError("ivt_prefilter_rate must be within [0, 1]")
        if self.default_frequency_cap is not None and self.default_frequency_cap < 1:
            raise ValueError("default_frequency_cap must be >= 1 when set")
        if not 0.0 <= self.broad_base_rate <= self.broad_max_rate <= 1.0:
            raise ValueError("need 0 <= broad_base_rate <= broad_max_rate <= 1")
        if not 0.0 < self.matched_supply_ref <= 1.0:
            raise ValueError("matched_supply_ref must be within (0, 1]")
        if self.min_supply_samples < 1:
            raise ValueError("min_supply_samples must be positive")


class AdServer:
    """Vendor-side delivery engine for a set of campaigns."""

    def __init__(self, campaigns: list[CampaignSpec], matcher: MatchEngine,
                 external: ExternalDemand, ipdb: GeoIpDatabase,
                 policy: NetworkPolicy | None = None,
                 exposure_model: ExposureModel | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.campaigns = list(campaigns)
        self.matcher = matcher
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.auction = Auction(external, metrics=self.metrics,
                               tracer=self.tracer)
        self.ipdb = ipdb
        self.policy = policy or NetworkPolicy()
        self.exposure_model = exposure_model or ExposureModel()
        self.pacer = BudgetPacer(self.campaigns, metrics=self.metrics,
                                 tracer=self.tracer)
        self.billing = BillingLedger(metrics=self.metrics,
                                     tracer=self.tracer)
        # Flight table: segment ``bisect_right(bounds, now)`` maps each
        # country to the campaigns with ``start <= now < end`` targeting
        # it, in campaign order, as rows ``(campaign, id, excluded
        # domains, exclude anonymous, effective frequency cap)``.
        self._flight_bounds = sorted(
            {campaign.start_unix for campaign in self.campaigns}
            | {campaign.end_unix for campaign in self.campaigns})
        self._flights: list[dict[str, list[tuple]]] = [{}]
        for bound in self._flight_bounds:
            segment: dict[str, list[tuple]] = {}
            for campaign in self.campaigns:
                if not campaign.start_unix <= bound < campaign.end_unix:
                    continue
                cap = campaign.frequency_cap
                row = (campaign, campaign.campaign_id,
                       campaign.excluded_domains, campaign.exclude_anonymous,
                       self.policy.default_frequency_cap if cap is None
                       else cap)
                for country in dict.fromkeys(campaign.target_countries):
                    segment.setdefault(country, []).append(row)
            self._flights.append(segment)
        self._next_impression_id = 1
        self._frequency: dict[tuple[str, str, str], int] = {}
        self._supply_matched: dict[str, int] = {}
        self._supply_examined: dict[str, int] = {}
        self.impressions: list[DeliveredImpression] = []
        self._pageviews_seen = self.metrics.counter("adserver.pageviews")
        # Bot pageviews stopped by the IVT prefilter.
        self._prefiltered = self.metrics.counter("adserver.prefiltered")
        self._deliveries = self.metrics.counter("adserver.deliveries")

    # ------------------------------------------------------------------ #

    def resolve_country(self, pageview: Pageview) -> str:
        """The network's geo call for a visitor (IP database first)."""
        country = self.ipdb.country_of(pageview.ip)
        return country if country is not None else pageview.country

    def _count_delivery(self, campaign: CampaignSpec, pageview: Pageview) -> None:
        key = (campaign.campaign_id, pageview.ip, pageview.user_agent)
        self._frequency[key] = self._frequency.get(key, 0) + 1

    def matched_supply(self, campaign_id: str) -> float:
        """Estimated fraction of traffic the campaign matches (C or B).

        Optimistic (= full reference supply) until enough pageviews have
        been examined to trust the estimate.
        """
        examined = self._supply_examined.get(campaign_id, 0)
        if examined < self.policy.min_supply_samples:
            return self.policy.matched_supply_ref
        return self._supply_matched.get(campaign_id, 0) / examined

    def broad_rate(self, campaign: CampaignSpec, now: float) -> float:
        """Run-of-network expansion pressure for *campaign* at *now*.

        Two factors multiply: *schedule pressure* (how far behind its
        budget delivery is) and *matched scarcity* (how short of the
        reference level the campaign's matched inventory runs).  A
        Football campaign with plentiful matched supply never expands, so
        its vendor report stays near-100 % contextual; a Research campaign
        with ~2 % matched supply is effectively run-of-network — exactly
        the two regimes Table 2 shows.  Spend and supply are never
        negative, so neither factor needs an upper clamp.
        """
        policy = self.policy
        campaign_id = campaign.campaign_id
        expected = campaign.daily_budget_eur * (
            (now - campaign.start_unix) / 86_400.0)
        if expected <= 0.0:
            return policy.broad_base_rate
        spent = self.pacer.total_spend.get(campaign_id, 0.0)
        pressure = max(0.0, (expected - spent) / expected)
        # matched_supply(), inlined: this runs once per decision.
        examined = self._supply_examined.get(campaign_id, 0)
        if examined < policy.min_supply_samples:
            supply = policy.matched_supply_ref
        else:
            supply = self._supply_matched.get(campaign_id, 0) / examined
        scarcity = max(0.0, 1.0 - supply / policy.matched_supply_ref)
        return (policy.broad_base_rate
                + pressure * scarcity
                * (policy.broad_max_rate - policy.broad_base_rate))

    # ------------------------------------------------------------------ #

    def serve(self, pageview: Pageview,
              rng: random.Random) -> Optional[DeliveredImpression]:
        """Process one pageview; returns the impression if *we* won it.

        The invalid-traffic prefilter models the network's proprietary
        behavioural bot detection: it stops a configured fraction of bot
        pageviews outright.  The bots that slip through are served and
        charged like humans — producing Table 4's data-center impressions.
        """
        self._pageviews_seen.inc()
        if pageview.is_bot and rng.random() < self.policy.ivt_prefilter_rate:
            self._prefiltered.inc()
            return None
        now = pageview.timestamp
        country = self.resolve_country(pageview)
        rows = self._flights[bisect_right(self._flight_bounds, now)].get(
            country)
        if not rows:
            return None
        publisher = pageview.publisher
        domain = publisher.domain.lower()
        anonymous = publisher.is_anonymous
        candidates: list[CampaignSpec] = []
        decisions: dict[str, MatchDecision] = {}
        for campaign, campaign_id, excluded, exclude_anonymous, cap in rows:
            # CampaignSpec.excludes_publisher, then the frequency cap.
            if (exclude_anonymous and anonymous) or domain in excluded:
                continue
            if cap is not None and self._frequency.get(
                    (campaign_id, pageview.ip, pageview.user_agent), 0) >= cap:
                continue
            decision = self.matcher.decide(campaign, publisher,
                                           pageview.interests, rng,
                                           broad_rate=self.broad_rate(campaign, now))
            self._supply_examined[campaign_id] = \
                self._supply_examined.get(campaign_id, 0) + 1
            if decision is CONTEXTUAL_MATCH or decision is BEHAVIOURAL_MATCH:
                self._supply_matched[campaign_id] = \
                    self._supply_matched.get(campaign_id, 0) + 1
            if not decision.eligible:
                continue
            if not self.pacer.may_bid(campaign, now, rng):
                continue
            candidates.append(campaign)
            decisions[campaign_id] = decision
        if not candidates:
            return None
        request = make_request(
            pageview, price_level=self.auction.external.price_level(country))
        outcome = self.auction.run(request, candidates, rng)
        if outcome.winner is None:
            return None
        campaign = outcome.winner
        exposure = self.exposure_model.sample(pageview, rng)
        impression = DeliveredImpression(
            impression_id=self._next_impression_id,
            campaign=campaign,
            pageview=pageview,
            exposure=exposure,
            match=decisions[campaign.campaign_id],
            clearing_cpm=outcome.clearing_cpm,
        )
        self._next_impression_id += 1
        self.tracer.set_impression(impression.impression_id,
                                   campaign.campaign_id)
        self.tracer.event(
            "creative.serve", at=now,
            campaign=campaign.campaign_id, creative=campaign.creative_id,
            publisher=pageview.publisher.domain, country=country,
            reason=impression.match.reason.value,
            clearing_cpm=outcome.clearing_cpm)
        self.pacer.record_spend(campaign, now, impression.price_eur)
        self.billing.charge(campaign.campaign_id, impression.price_eur, now)
        self._count_delivery(campaign, pageview)
        self.impressions.append(impression)
        self._deliveries.inc()
        return impression

    def run(self, pageviews, rng: random.Random) -> list[DeliveredImpression]:
        """Serve a whole pageview stream; returns the impressions we won."""
        first_index = len(self.impressions)
        for pageview in pageviews:
            self.serve(pageview, rng)
        return self.impressions[first_index:]

    def impressions_for(self, campaign_id: str) -> list[DeliveredImpression]:
        """All impressions delivered for one campaign."""
        return [impression for impression in self.impressions
                if impression.campaign.campaign_id == campaign_id]
