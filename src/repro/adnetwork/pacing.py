"""Budget accounting and pacing.

Tracks per-campaign spend against the daily budget and throttles auction
participation so a flight does not exhaust its budget in the first busy
hour — the standard ad-server behaviour the simulation needs so multi-day
campaigns deliver across their whole window.
"""

from __future__ import annotations

import random

from repro.adnetwork.campaign import CampaignSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

_SECONDS_PER_DAY = 86_400.0


class BudgetPacer:
    """Per-campaign daily spend ledger with probabilistic throttling."""

    def __init__(self, campaigns: list[CampaignSpec],
                 throttle_floor: float = 0.15,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if not 0.0 < throttle_floor <= 1.0:
            raise ValueError("throttle_floor must be within (0, 1]")
        self.throttle_floor = throttle_floor
        self._campaigns = {campaign.campaign_id: campaign
                           for campaign in campaigns}
        if len(self._campaigns) != len(campaigns):
            raise ValueError("duplicate campaign ids")
        self._spent_today: dict[tuple[str, int], float] = {}
        self.total_spend: dict[str, float] = {
            campaign.campaign_id: 0.0 for campaign in campaigns}
        metrics = metrics if metrics is not None else MetricsRegistry()
        # One check per may_bid call; a refused bid counts as one
        # throttle: daily budget exhausted, ahead of the intraday spend
        # schedule, or probabilistic smoothing.
        self._bid_checks = metrics.counter("pacing.bid_checks")
        self._throttles_budget = metrics.counter("pacing.throttles_budget")
        self._throttles_schedule = metrics.counter("pacing.throttles_schedule")
        self._throttles_random = metrics.counter("pacing.throttles_random")
        self._spend_recorded = metrics.counter("pacing.spend_eur")

    @staticmethod
    def _day_index(campaign: CampaignSpec, unix_time: float) -> int:
        return int((unix_time - campaign.start_unix) // _SECONDS_PER_DAY)

    def spent_today(self, campaign: CampaignSpec, unix_time: float) -> float:
        """Spend accumulated on the flight day containing *unix_time*."""
        key = (campaign.campaign_id, self._day_index(campaign, unix_time))
        return self._spent_today.get(key, 0.0)

    def may_bid(self, campaign: CampaignSpec, unix_time: float,
                rng: random.Random) -> bool:
        """Schedule-spread participation decision.

        Spend is admitted against a linear intraday schedule: at any moment
        the campaign may have consumed at most ``daily_budget × (fraction
        of the day elapsed)`` plus a small head-start allowance.  This is
        what spreads a tiny budget across the whole day instead of blowing
        it on the first minutes of traffic — and what lets a campaign with
        plentiful matched inventory stay exactly on schedule (keeping the
        ad server's run-of-network expansion off).
        """
        budget = campaign.daily_budget_eur
        spent = self.spent_today(campaign, unix_time)
        self._bid_checks.inc()
        if spent >= budget:
            self._throttles_budget.inc()
            return self._gate(campaign, unix_time, False, "budget")
        day_fraction = ((unix_time - campaign.start_unix) % _SECONDS_PER_DAY
                        ) / _SECONDS_PER_DAY
        allowed = budget * min(1.0, day_fraction + 0.02)
        if spent >= allowed:
            self._throttles_schedule.inc()
            return self._gate(campaign, unix_time, False, "schedule")
        # Light randomisation avoids serving strictly first-come pageviews.
        if rng.random() < max(self.throttle_floor, 1.0 - spent / budget):
            return self._gate(campaign, unix_time, True, "open")
        self._throttles_random.inc()
        return self._gate(campaign, unix_time, False, "random")

    def _gate(self, campaign: CampaignSpec, unix_time: float,
              allowed: bool, reason: str) -> bool:
        self.tracer.event("pacing.gate", at=unix_time,
                          campaign=campaign.campaign_id,
                          allowed=allowed, reason=reason)
        return allowed

    def record_spend(self, campaign: CampaignSpec, unix_time: float,
                     amount_eur: float) -> None:
        """Charge a won impression against the campaign's budgets."""
        if amount_eur < 0:
            raise ValueError("spend must be non-negative")
        key = (campaign.campaign_id, self._day_index(campaign, unix_time))
        self._spent_today[key] = self._spent_today.get(key, 0.0) + amount_eur
        self.total_spend[campaign.campaign_id] += amount_eur
        self._spend_recorded.inc(amount_eur)
