"""Conversion audit — the paper's future work, implemented.

Joins the advertiser's first-party conversion log against the beacon
dataset (both keyed by the anonymised IP ⊕ User-Agent identity) and
reports the funnel per campaign: click-through rate, conversion ratio,
cost per conversion — and the click-fraud signal the join makes visible:
clicks from data-center identities essentially never convert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.adnetwork.conversions import ConversionEvent
from repro.audit.dataset import AuditDataset
from repro.util.stats import Fraction2


@dataclass(frozen=True)
class ConversionResult:
    """Funnel facts for one campaign."""

    campaign_id: str
    impressions: int
    clicks: int
    conversions: int
    revenue_eur: float
    spend_eur: float
    dc_clicks: int
    dc_conversions: int

    @property
    def ctr(self) -> Fraction2:
        """Clicks per logged impression."""
        return Fraction2(min(self.clicks, self.impressions),
                         self.impressions) if self.impressions \
            else Fraction2(0, 0)

    @property
    def conversion_ratio(self) -> Fraction2:
        """The paper's §2 definition: converting share of impressions."""
        return Fraction2(min(self.conversions, self.impressions),
                         self.impressions) if self.impressions \
            else Fraction2(0, 0)

    @property
    def cost_per_conversion_eur(self) -> float:
        """Spend per conversion (inf when nothing converted)."""
        if self.conversions == 0:
            return float("inf")
        return self.spend_eur / self.conversions

    @property
    def dc_click_waste(self) -> Fraction2:
        """Share of clicks from data-center identities — clicks that, per
        the join, do not convert."""
        return Fraction2(self.dc_clicks, self.clicks) if self.clicks \
            else Fraction2(0, 0)


class ConversionAudit:
    """Funnel analysis over dataset + first-party conversion log."""

    def __init__(self, dataset: AuditDataset,
                 conversions: Iterable[ConversionEvent]) -> None:
        self.dataset = dataset
        self._by_campaign: dict[str, list[ConversionEvent]] = {}
        for event in conversions:
            self._by_campaign.setdefault(event.campaign_id, []).append(event)

    def assess(self, campaign_id: str) -> ConversionResult:
        """One campaign's funnel."""
        rows = self.dataset.select(campaign_id, "clicks", "is_datacenter",
                                   "user_key")
        events = self._by_campaign.get(campaign_id, [])
        report = self.dataset.vendor_reports.get(campaign_id)
        clicks = sum(row_clicks for row_clicks, _, _ in rows)
        dc_clicks = sum(row_clicks for row_clicks, is_datacenter, _ in rows
                        if is_datacenter)
        converting_keys = {event.user_key for event in events}
        dc_conversions = sum(
            1 for _, is_datacenter, user_key in rows
            if is_datacenter and user_key in converting_keys)
        return ConversionResult(
            campaign_id=campaign_id,
            impressions=len(rows),
            clicks=clicks,
            conversions=len(events),
            revenue_eur=sum(event.value_eur for event in events),
            spend_eur=(report.charged_eur - report.refunded_eur)
            if report else 0.0,
            dc_clicks=dc_clicks,
            dc_conversions=dc_conversions,
        )

    def table(self) -> list[ConversionResult]:
        """One funnel row per campaign, configuration order."""
        return [self.assess(campaign_id)
                for campaign_id in self.dataset.campaign_ids]

    def fraud_signal(self, campaign_id: str) -> float:
        """Click-without-conversion asymmetry of data-center traffic.

        Returns the DC share of clicks minus the DC share of conversions;
        values near the DC click share itself mean the hosted clicks are
        pure waste (bots click, bots never buy).
        """
        result = self.assess(campaign_id)
        dc_click_share = result.dc_click_waste.value
        dc_conversion_share = (result.dc_conversions / result.conversions
                               if result.conversions else 0.0)
        return dc_click_share - dc_conversion_share
