"""Vendor billing: charges and the silent fraud refunds.

The paper observed that AdWords initially charged for >1 000 impressions
delivered to data-center IPs in the Football campaigns and later issued a
refund "without details on the reasons".  The ledger reproduces both
halves: every won impression is charged at the auction's clearing price,
and a post-hoc pass refunds a fraction of the invalid impressions the
network's late detection catches — as an opaque lump sum per campaign.

Each campaign's charged total is kept once, by the budget pacer
(:attr:`BudgetPacer.total_spend`); the ledger counts and traces the
charges and keeps the refund totals.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


class BillingLedger:
    """Charge accounting and per-campaign refund totals."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Campaign id → credits issued back to it, for the campaigns
        #: with at least one refunded impression.
        self.refunded: dict[str, float] = {}
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._charges_recorded = metrics.counter("billing.charges")
        self._charged_eur = metrics.counter("billing.charged_eur")
        self._refunds_recorded = metrics.counter("billing.refunds")
        self._refunded_eur = metrics.counter("billing.refunded_eur")

    def charge(self, campaign_id: str, amount_eur: float,
               timestamp: float) -> None:
        """Count and trace one impression charge."""
        self._charges_recorded.inc()
        self._charged_eur.inc(amount_eur)
        self.tracer.event("billing.charge", at=timestamp,
                          campaign=campaign_id, amount_eur=amount_eur)

    def apply_fraud_refunds(self, impressions: Iterable, rng: random.Random,
                            detection_rate: float = 0.5) -> dict[str, float]:
        """Post-flight invalid-traffic clawback.

        *impressions* are :class:`DeliveredImpression` records; the network
        re-scores them after the fact and refunds a *detection_rate*
        fraction of the ones that came from bot traffic.  The advertiser
        only sees the per-campaign lump sums that this method returns (and
        adds to :attr:`refunded`), never which impressions were involved —
        reproducing the paper's "we got a refund ... without details"
        experience.
        """
        if not 0.0 <= detection_rate <= 1.0:
            raise ValueError("detection_rate must be within [0, 1]")
        per_campaign: dict[str, float] = {}
        for impression in impressions:
            if not impression.pageview.is_bot:
                continue
            if rng.random() >= detection_rate:
                continue
            campaign_id = impression.campaign.campaign_id
            per_campaign[campaign_id] = \
                per_campaign.get(campaign_id, 0.0) + impression.price_eur
        refunds = dict(sorted(per_campaign.items()))
        for campaign_id, amount in refunds.items():
            self.refunded[campaign_id] = \
                self.refunded.get(campaign_id, 0.0) + amount
            self._refunds_recorded.inc()
            self._refunded_eur.inc(amount)
        return refunds
