"""Fraud audit (paper Table 4).

Quantifies each campaign's exposure to data-center traffic using the
classification the enrichment pass stored on every record (the 3-stage
MaxMind → deny-list → manual cascade of :mod:`repro.geo.resolver`):

* fraction of distinct IPs located in data centers,
* fraction of impressions delivered to those IPs,
* fraction of publishers that served impressions to those IPs,

plus the money angle: what those impressions cost and how much the vendor
silently refunded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.dataset import AuditDataset, memoised
from repro.util.stats import Fraction2


@dataclass(frozen=True)
class DataCenterStats:
    """Table 4 row for one campaign."""

    campaign_id: str
    dc_ips: Fraction2            # of distinct IPs
    dc_impressions: Fraction2    # of logged impressions
    dc_publishers: Fraction2     # of observed publishers
    estimated_cost_eur: float    # CPM-bound estimate of wasted spend
    vendor_refund_eur: float


class FraudAudit:
    """Data-center traffic exposure, campaign by campaign."""

    def __init__(self, dataset: AuditDataset) -> None:
        self.dataset = dataset

    @memoised
    def assess(self, campaign_id: str) -> DataCenterStats:
        """One Table 4 row.

        Requires an enriched dataset (``is_datacenter`` set); raises
        otherwise rather than silently reporting zeros.
        """
        rows = self.dataset.select(campaign_id, "record_id", "identity",
                                   "domain", "is_datacenter")
        campaign = self.dataset.campaigns[campaign_id]
        ips: set[str] = set()
        dc_ip_set: set[str] = set()
        publishers: set[str] = set()
        dc_publishers: set[str] = set()
        dc_impressions = 0
        for record_id, identity, domain, is_datacenter in rows:
            if is_datacenter is None:
                raise ValueError(
                    f"record {record_id} not enriched; run the "
                    "Enricher before the fraud audit")
            ips.add(identity)
            publishers.add(domain)
            if is_datacenter:
                dc_ip_set.add(identity)
                dc_publishers.add(domain)
                dc_impressions += 1
        report = self.dataset.vendor_reports.get(campaign_id)
        return DataCenterStats(
            campaign_id=campaign_id,
            dc_ips=Fraction2(len(dc_ip_set), len(ips)) if ips
            else Fraction2(0, 0),
            dc_impressions=Fraction2(dc_impressions, len(rows)) if rows
            else Fraction2(0, 0),
            dc_publishers=Fraction2(len(dc_publishers), len(publishers))
            if publishers else Fraction2(0, 0),
            estimated_cost_eur=dc_impressions * campaign.bid_per_impression,
            vendor_refund_eur=report.refunded_eur if report else 0.0,
        )

    def table(self) -> list[DataCenterStats]:
        """Table 4: one row per campaign, configuration order."""
        return [self.assess(campaign_id)
                for campaign_id in self.dataset.campaign_ids]

    def stage_breakdown(self, campaign_id: str) -> dict[str, int]:
        """How many of a campaign's DC impressions each cascade stage
        caught (ablation A5's raw material)."""
        breakdown: dict[str, int] = {}
        for is_datacenter, dc_stage in self.dataset.select(
                campaign_id, "is_datacenter", "dc_stage"):
            if is_datacenter:
                breakdown[dc_stage] = breakdown.get(dc_stage, 0) + 1
        return breakdown
