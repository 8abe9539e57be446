"""The auditor's working set.

Bundles everything the advertiser-side auditor legitimately has access to:

* the impression store collected by their own beacon,
* the vendor reports downloaded from the console,
* the campaign specs they themselves configured,
* a *publisher directory* — per-domain keywords/topics, which in the paper
  come from the keywords and topics AdWords assigns to each publisher (and
  could equally be produced by crawling the sites),
* public IP intelligence and ranking services.

No simulation ground truth enters through this type: audits can only see
what a real advertiser could.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, TypeVar

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.reporting import VendorReport
from repro.collector.store import ImpressionRecord, ImpressionStore
from repro.taxonomy.lexicon import Lexicon
from repro.web.publisher import Publisher
from repro.web.ranking import RankingService

Axis = TypeVar("Axis")


@dataclass
class AuditDataset:
    """Everything one audit run works from."""

    store: ImpressionStore
    campaigns: Mapping[str, CampaignSpec]
    vendor_reports: Mapping[str, VendorReport]
    directory: Mapping[str, Publisher]
    lexicon: Lexicon
    ranking: RankingService
    #: What the memoised methods of the axes :meth:`audit` built have
    #: computed, by axis class, method and arguments.
    _results: dict[tuple, object] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        for campaign_id in self.vendor_reports:
            if campaign_id not in self.campaigns:
                raise ValueError(
                    f"vendor report for unknown campaign {campaign_id!r}")

    def audit(self, axis: Callable[["AuditDataset"], Axis]) -> Axis:
        """One audit axis over this dataset, sharing results with the rest.

        The :func:`memoised` methods of every axis built here keep their
        results in this dataset, so once the store is sealed the full
        audit, the reconciliation, the tables, the figures and the CLI
        compute each (axis, campaign) result once between them.  The
        results live here rather than in stored axes: an axis holds its
        dataset, and a dataset holding its axes would be a reference
        cycle that keeps the store alive until a full garbage collection.
        """
        instance = axis(self)
        instance._results = self._results
        return instance

    @property
    def campaign_ids(self) -> list[str]:
        """All configured campaigns, in configuration order."""
        return list(self.campaigns)

    def records(self, campaign_id: str) -> list[ImpressionRecord]:
        """Logged impressions for one campaign."""
        if campaign_id not in self.campaigns:
            raise KeyError(f"unknown campaign: {campaign_id!r}")
        return self.store.by_campaign(campaign_id)

    def select(self, campaign_id: Optional[str], *fields: str) -> list[tuple]:
        """Column projection over one campaign's records (or all records).

        The audits' bulk reads: on the columnar store backend this is
        answered straight from the typed columns and the seal-time
        campaign index, without materialising record views.
        """
        if campaign_id is not None and campaign_id not in self.campaigns:
            raise KeyError(f"unknown campaign: {campaign_id!r}")
        return self.store.select(campaign_id, *fields)

    def record_count(self, campaign_id: str) -> int:
        """Number of logged impressions for one campaign."""
        if campaign_id not in self.campaigns:
            raise KeyError(f"unknown campaign: {campaign_id!r}")
        return self.store.count_for(campaign_id)

    def audit_publishers(self, campaign_id: Optional[str] = None) -> set[str]:
        """Publisher domains our methodology observed."""
        return self.store.distinct_domains(campaign_id)

    def vendor_publishers(self, campaign_id: Optional[str] = None) -> set[str]:
        """Publisher domains the vendor's placement reports name."""
        if campaign_id is not None:
            report = self.vendor_reports.get(campaign_id)
            return report.reported_publishers if report else set()
        domains: set[str] = set()
        for report in self.vendor_reports.values():
            domains |= report.reported_publishers
        return domains

    def publisher_info(self, domain: str) -> Optional[Publisher]:
        """Directory entry (vendor-assigned keywords/topics) for a domain."""
        return self.directory.get(domain.lower())

    def require_report(self, campaign_id: str) -> VendorReport:
        """The vendor report for a campaign (raises when absent)."""
        report = self.vendor_reports.get(campaign_id)
        if report is None:
            raise KeyError(f"no vendor report for campaign {campaign_id!r}")
        return report


def memoised(method: Callable) -> Callable:
    """Compute an axis method once per dataset, axis class and arguments
    for axes built by :meth:`AuditDataset.audit` while the store is
    sealed; compute on every call otherwise.

    A sealed store's records never change, so the result holds for as
    long as the dataset lives.  Every caller gets the same result object,
    so memoised methods return immutable values (frozen dataclasses,
    tuples).  An axis built directly may be configured differently (a
    context criterion, a viewability threshold) and shares nothing.
    """
    @functools.wraps(method)
    def cached(self, *args, **kwargs):
        results = getattr(self, "_results", None)
        if results is None or not self.dataset.store.sealed:
            return method(self, *args, **kwargs)
        key = (type(self), method.__name__, args, *kwargs.items())
        if key not in results:
            results[key] = method(self, *args, **kwargs)
        return results[key]
    return cached
