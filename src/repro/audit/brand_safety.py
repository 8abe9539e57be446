"""Brand-safety audit (paper Figure 1).

Compares the set of publishers where our beacon saw impressions against
the set the vendor's placement report names, producing the Venn counts of
Figure 1, the "even if every anonymous impression were its own publisher"
lower bound the paper argues with, and a blacklist proposal of observed
brand-unsafe publishers the vendor never disclosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.audit.dataset import AuditDataset, memoised
from repro.util.stats import Fraction2


@dataclass(frozen=True)
class VennCounts:
    """The three regions of Figure 1's Venn diagram."""

    audit_only: int
    both: int
    vendor_only: int

    def __post_init__(self) -> None:
        if min(self.audit_only, self.both, self.vendor_only) < 0:
            raise ValueError("Venn counts must be non-negative")

    @property
    def audit_total(self) -> int:
        """Publishers our methodology observed."""
        return self.audit_only + self.both

    @property
    def vendor_total(self) -> int:
        """Publishers the vendor reported."""
        return self.vendor_only + self.both

    @property
    def union_total(self) -> int:
        return self.audit_only + self.both + self.vendor_only

    @property
    def unreported_by_vendor(self) -> Fraction2:
        """Share of audit-observed publishers the vendor never named —
        the paper's headline 57 %."""
        return Fraction2(self.audit_only, max(1, self.audit_total))

    @property
    def unlogged_by_audit(self) -> Fraction2:
        """Share of vendor-reported publishers our beacon missed —
        the paper's own 16.5 % blind spot."""
        return Fraction2(self.vendor_only, max(1, self.vendor_total))


@dataclass(frozen=True)
class AnonymousBound:
    """The paper's General-005 argument: anonymous inventory cannot explain
    the unreported publishers."""

    anonymous_impressions: int
    unreported_publishers: int

    @property
    def unexplained_publishers(self) -> int:
        """Publishers missing even if every anonymous impression had been
        delivered on a distinct publisher."""
        return max(0, self.unreported_publishers - self.anonymous_impressions)


class BrandSafetyAudit:
    """Publisher-coverage comparison between audit and vendor data."""

    def __init__(self, dataset: AuditDataset) -> None:
        self.dataset = dataset

    @memoised
    def venn(self, campaign_id: Optional[str] = None) -> VennCounts:
        """Venn counts for one campaign, or across all campaigns."""
        audit = self.dataset.audit_publishers(campaign_id)
        vendor = self.dataset.vendor_publishers(campaign_id)
        return VennCounts(
            audit_only=len(audit - vendor),
            both=len(audit & vendor),
            vendor_only=len(vendor - audit),
        )

    @memoised
    def anonymous_bound(self, campaign_id: str) -> AnonymousBound:
        """Can ``anonymous.google`` inventory account for the gap?"""
        report = self.dataset.require_report(campaign_id)
        counts = self.venn(campaign_id)
        return AnonymousBound(
            anonymous_impressions=report.anonymous_impressions,
            unreported_publishers=counts.audit_only,
        )

    def undisclosed_unsafe_publishers(self,
                                      campaign_id: Optional[str] = None
                                      ) -> list[str]:
        """Brand-unsafe publishers that served our ads without ever being
        named by the vendor — the actionable blacklist of the audit.

        "Unsafe" is judged from the publisher directory (the auditor can
        visit the site), not from any vendor data.
        """
        audit = self.dataset.audit_publishers(campaign_id)
        vendor = self.dataset.vendor_publishers(campaign_id)
        unsafe = []
        for domain in sorted(audit - vendor):
            info = self.dataset.publisher_info(domain)
            if info is not None and info.unsafe:
                unsafe.append(domain)
        return unsafe

    def blacklist_proposal(self, campaign_id: Optional[str] = None) -> list[str]:
        """Every observed unsafe publisher (reported or not): what the
        advertiser should exclude going forward."""
        unsafe = []
        for domain in sorted(self.dataset.audit_publishers(campaign_id)):
            info = self.dataset.publisher_info(domain)
            if info is not None and info.unsafe:
                unsafe.append(domain)
        return unsafe
