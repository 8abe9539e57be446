"""Vendor billing: charges and the silent fraud refunds.

The paper observed that AdWords initially charged for >1 000 impressions
delivered to data-center IPs in the Football campaigns and later issued a
refund "without details on the reasons".  The ledger reproduces both
halves: every won impression is charged at the auction's clearing price,
and a post-hoc pass refunds a fraction of the invalid impressions the
network's late detection catches — as an opaque lump sum per campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class Charge:
    """One billed impression."""

    campaign_id: str
    impression_id: int
    amount_eur: float
    timestamp: float

    def __post_init__(self) -> None:
        if self.amount_eur < 0:
            raise ValueError("amount_eur must be non-negative")


@dataclass(frozen=True)
class CampaignBillingSummary:
    """Per-campaign billing totals, the mergeable projection of a ledger.

    Shard runners ship these across process boundaries instead of their
    full charge lists; :meth:`BillingLedger.absorb_summary` folds them back
    into a ledger as per-campaign lump entries (deterministically, in call
    order), which keeps merged totals byte-identical between the serial
    and the parallel experiment paths.
    """

    campaign_id: str
    charged_eur: float
    refunded_eur: float
    refund_covered_impressions: int

    def __post_init__(self) -> None:
        if not self.campaign_id:
            raise ValueError("campaign_id must be non-empty")
        if self.charged_eur < 0 or self.refunded_eur < 0:
            raise ValueError("billing totals must be non-negative")
        if self.refund_covered_impressions < 0:
            raise ValueError("refund_covered_impressions must be non-negative")


@dataclass(frozen=True)
class Refund:
    """An opaque lump-sum credit (no impression-level detail disclosed)."""

    campaign_id: str
    amount_eur: float
    covered_impressions: int

    def __post_init__(self) -> None:
        if self.amount_eur < 0:
            raise ValueError("amount_eur must be non-negative")
        if self.covered_impressions < 0:
            raise ValueError("covered_impressions must be non-negative")


class BillingLedger:
    """Per-campaign charge/refund accounting."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.charges: list[Charge] = []
        self.refunds: list[Refund] = []
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._charges_recorded = metrics.counter("billing.charges")
        self._charged_eur = metrics.counter("billing.charged_eur")
        self._refunds_recorded = metrics.counter("billing.refunds")
        self._refunded_eur = metrics.counter("billing.refunded_eur")

    def charge(self, campaign_id: str, impression_id: int,
               amount_eur: float, timestamp: float) -> None:
        """Record one impression charge."""
        self.charges.append(Charge(campaign_id=campaign_id,
                                   impression_id=impression_id,
                                   amount_eur=amount_eur,
                                   timestamp=timestamp))
        self._charges_recorded.inc()
        self._charged_eur.inc(amount_eur)
        self.tracer.event("billing.charge", at=timestamp,
                          campaign=campaign_id, amount_eur=amount_eur)

    def charged_total(self, campaign_id: str) -> float:
        """Gross spend billed to a campaign."""
        return sum(charge.amount_eur for charge in self.charges
                   if charge.campaign_id == campaign_id)

    def refunded_total(self, campaign_id: str) -> float:
        """Credits issued back to a campaign."""
        return sum(refund.amount_eur for refund in self.refunds
                   if refund.campaign_id == campaign_id)

    def summaries(self) -> dict[str, CampaignBillingSummary]:
        """Per-campaign totals, keyed and ordered by sorted campaign id."""
        charged: dict[str, float] = {}
        for charge in self.charges:
            charged[charge.campaign_id] = \
                charged.get(charge.campaign_id, 0.0) + charge.amount_eur
        refunded: dict[str, float] = {}
        covered: dict[str, int] = {}
        for refund in self.refunds:
            refunded[refund.campaign_id] = \
                refunded.get(refund.campaign_id, 0.0) + refund.amount_eur
            covered[refund.campaign_id] = \
                covered.get(refund.campaign_id, 0) + refund.covered_impressions
        return {
            campaign_id: CampaignBillingSummary(
                campaign_id=campaign_id,
                charged_eur=charged.get(campaign_id, 0.0),
                refunded_eur=refunded.get(campaign_id, 0.0),
                refund_covered_impressions=covered.get(campaign_id, 0))
            for campaign_id in sorted(charged.keys() | refunded.keys())
        }

    def absorb_summary(self, summary: CampaignBillingSummary) -> None:
        """Fold another ledger's per-campaign totals into this one.

        The detail of the source ledger is collapsed into one lump charge
        and one lump refund per campaign — all the advertiser-visible query
        surface (``charged_total``/``refunded_total``) needs.
        """
        if summary.charged_eur > 0:
            self.charges.append(Charge(
                campaign_id=summary.campaign_id, impression_id=0,
                amount_eur=summary.charged_eur, timestamp=0.0))
            self._charges_recorded.inc()
            self._charged_eur.inc(summary.charged_eur)
        if summary.refunded_eur > 0 or summary.refund_covered_impressions > 0:
            self.refunds.append(Refund(
                campaign_id=summary.campaign_id,
                amount_eur=summary.refunded_eur,
                covered_impressions=summary.refund_covered_impressions))
            self._refunds_recorded.inc()
            self._refunded_eur.inc(summary.refunded_eur)

    def apply_fraud_refunds(self, impressions: Iterable, rng: random.Random,
                            detection_rate: float = 0.5) -> list[Refund]:
        """Post-flight invalid-traffic clawback.

        *impressions* are :class:`DeliveredImpression` records; the network
        re-scores them after the fact and refunds a *detection_rate*
        fraction of the ones that came from bot traffic.  The advertiser
        only sees the per-campaign lump sums that this method returns (and
        stores), never which impressions were involved — reproducing the
        paper's "we got a refund ... without details" experience.
        """
        if not 0.0 <= detection_rate <= 1.0:
            raise ValueError("detection_rate must be within [0, 1]")
        per_campaign: dict[str, tuple[float, int]] = {}
        for impression in impressions:
            if not impression.pageview.is_bot:
                continue
            if rng.random() >= detection_rate:
                continue
            amount, count = per_campaign.get(impression.campaign.campaign_id,
                                             (0.0, 0))
            per_campaign[impression.campaign.campaign_id] = (
                amount + impression.price_eur, count + 1)
        refunds = [Refund(campaign_id=campaign_id, amount_eur=amount,
                          covered_impressions=count)
                   for campaign_id, (amount, count) in sorted(per_campaign.items())]
        self.refunds.extend(refunds)
        for refund in refunds:
            self._refunds_recorded.inc()
            self._refunded_eur.inc(refund.amount_eur)
        return refunds
