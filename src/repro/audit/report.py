"""Full audit report: every axis, every campaign, one artifact.

``full_audit`` is the library's headline entry point: hand it an
:class:`~repro.audit.dataset.AuditDataset` and receive the complete
quality assessment the paper's methodology produces, renderable as text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.brand_safety import VennCounts
from repro.audit.context import ContextResult
from repro.audit.dataset import AuditDataset
from repro.audit.fraud import DataCenterStats
from repro.audit.frequency import FrequencyAudit, FrequencySummary
from repro.audit.popularity import PopularityAudit, RankDistribution
from repro.audit.reconcile import Discrepancies, ReconciliationAudit
from repro.audit.viewability import ViewabilityAudit, ViewabilityResult
from repro.util.tables import render_table


@dataclass(frozen=True)
class CampaignAuditReport:
    """All per-campaign audit results."""

    campaign_id: str
    venn: VennCounts
    context: ContextResult
    popularity: RankDistribution
    viewability: ViewabilityResult
    fraud: DataCenterStats
    discrepancies: Discrepancies


@dataclass(frozen=True)
class FullAuditReport:
    """The complete audit artifact."""

    campaigns: tuple[CampaignAuditReport, ...]
    aggregate_venn: VennCounts
    frequency: FrequencySummary
    blacklist: tuple[str, ...]

    def render(self) -> str:
        """Human-readable multi-section rendering."""
        sections = []
        sections.append(render_table(
            ["Campaign", "Pubs (audit only)", "Pubs (both)",
             "Pubs (vendor only)", "Unreported by vendor"],
            [(report.campaign_id, report.venn.audit_only, report.venn.both,
              report.venn.vendor_only, str(report.venn.unreported_by_vendor))
             for report in self.campaigns],
            title="Brand safety: publisher coverage (Figure 1)"))
        sections.append(render_table(
            ["Campaign", "Audit contextual", "Vendor contextual"],
            [(report.campaign_id, str(report.context.audit_fraction),
              str(report.context.vendor_fraction))
             for report in self.campaigns],
            title="Context (Table 2)"))
        sections.append(render_table(
            ["Campaign", "View >= 1s", "Median exposure (s)"],
            [(report.campaign_id,
              str(report.viewability.viewable_upper_bound),
              f"{report.viewability.median_exposure_seconds:.1f}")
             for report in self.campaigns],
            title="Viewability upper bound (Table 3)"))
        sections.append(render_table(
            ["Campaign", "DC IPs", "DC impressions", "DC publishers"],
            [(report.campaign_id, str(report.fraud.dc_ips),
              str(report.fraud.dc_impressions),
              str(report.fraud.dc_publishers))
             for report in self.campaigns],
            title="Data-center traffic (Table 4)"))
        aggregate = self.aggregate_venn
        sections.append(
            "Aggregate publisher Venn: "
            f"{aggregate.audit_only} audit-only / {aggregate.both} both / "
            f"{aggregate.vendor_only} vendor-only "
            f"(vendor missed {aggregate.unreported_by_vendor})")
        frequency = self.frequency
        sections.append(
            "Frequency capping: "
            f"{frequency.users_over_10} users >10 impressions, "
            f"{frequency.users_over_100} users >100, "
            f"max {frequency.max_impressions_single_user}, "
            f"{frequency.users_median_under_60s} heavy users with median "
            "inter-arrival < 60 s")
        sections.append(f"Proposed blacklist ({len(self.blacklist)} unsafe "
                        "publishers): " + ", ".join(self.blacklist[:10])
                        + ("..." if len(self.blacklist) > 10 else ""))
        return "\n\n".join(sections)


def full_audit(dataset: AuditDataset) -> FullAuditReport:
    """Run every audit axis over *dataset*.

    The axes come from :meth:`AuditDataset.audit`, so on a sealed
    dataset the tables and figures read the results computed here
    instead of computing them again.
    """
    reconciliation = dataset.audit(ReconciliationAudit)
    brand_safety = reconciliation.brand_safety
    context = reconciliation.context
    fraud = reconciliation.fraud
    popularity = dataset.audit(PopularityAudit)
    viewability = dataset.audit(ViewabilityAudit)
    frequency = dataset.audit(FrequencyAudit)
    campaign_reports = []
    for campaign_id in dataset.campaign_ids:
        campaign_reports.append(CampaignAuditReport(
            campaign_id=campaign_id,
            venn=brand_safety.venn(campaign_id),
            context=context.assess(campaign_id),
            popularity=popularity.distribution(campaign_id),
            viewability=viewability.assess(campaign_id),
            fraud=fraud.assess(campaign_id),
            discrepancies=reconciliation.assess(campaign_id),
        ))
    return FullAuditReport(
        campaigns=tuple(campaign_reports),
        aggregate_venn=brand_safety.venn(None),
        frequency=frequency.summary(None),
        blacklist=tuple(brand_safety.blacklist_proposal(None)),
    )
