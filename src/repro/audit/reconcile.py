"""Report reconciliation: where the vendor's story and ours diverge.

Rolls the per-axis audits into the discrepancy summary an advertiser
actually acts on: unreported publishers, inflated contextual claims,
impressions our beacon never saw (and vice versa — the beacon's own loss),
and money charged for traffic the audit attributes to data centers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.brand_safety import BrandSafetyAudit
from repro.audit.context import ContextAudit
from repro.audit.dataset import AuditDataset, memoised
from repro.audit.fraud import FraudAudit
from repro.util.stats import Fraction2


@dataclass(frozen=True)
class Discrepancies:
    """Everything inconsistent between vendor report and audit dataset,
    for one campaign."""

    campaign_id: str
    vendor_impressions: int
    logged_impressions: int
    publishers_unreported_by_vendor: int
    publishers_unreported_fraction: Fraction2
    contextual_gap_points: float        # vendor % − audit %
    dc_cost_not_refunded_eur: float
    anonymous_gap_publishers: int       # missing pubs anonymity can't explain

    @property
    def logging_loss(self) -> Fraction2:
        """Impressions the beacon failed to log, relative to the vendor's
        count (the paper's §3.1 error budget, observed)."""
        missing = max(0, self.vendor_impressions - self.logged_impressions)
        return Fraction2(missing, max(1, self.vendor_impressions))


class ReconciliationAudit:
    """Builds the discrepancy summary per campaign."""

    def __init__(self, dataset: AuditDataset) -> None:
        self.dataset = dataset
        self.brand_safety = dataset.audit(BrandSafetyAudit)
        self.context = dataset.audit(ContextAudit)
        self.fraud = dataset.audit(FraudAudit)

    @memoised
    def assess(self, campaign_id: str) -> Discrepancies:
        """Reconcile one campaign."""
        report = self.dataset.require_report(campaign_id)
        logged = self.dataset.record_count(campaign_id)
        venn = self.brand_safety.venn(campaign_id)
        context = self.context.assess(campaign_id)
        fraud = self.fraud.assess(campaign_id)
        bound = self.brand_safety.anonymous_bound(campaign_id)
        return Discrepancies(
            campaign_id=campaign_id,
            vendor_impressions=report.total_impressions,
            logged_impressions=logged,
            publishers_unreported_by_vendor=venn.audit_only,
            publishers_unreported_fraction=venn.unreported_by_vendor,
            contextual_gap_points=(context.vendor_fraction.pct
                                   - context.audit_fraction.pct),
            dc_cost_not_refunded_eur=max(
                0.0, fraud.estimated_cost_eur - fraud.vendor_refund_eur),
            anonymous_gap_publishers=bound.unexplained_publishers,
        )
