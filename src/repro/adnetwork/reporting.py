"""Vendor-side campaign reporting — the artifact under audit.

Builds the report an advertiser downloads from the vendor console.  The
report embeds the policies the paper reverse-engineers:

* **Placement rows cover only vendor-viewable impressions.**  A publisher
  that served ads nobody (per the network's measurement) saw never appears
  — the paper's explanation for the 57 % of publishers missing from
  AdWords reports (Figure 1).
* **Anonymous inventory is aggregated** under the ``anonymous.google``
  placement, hiding those publishers' identities.
* **The contextual column uses the network's own criteria**, including the
  undisclosed behavioural signal, so it overstates thematic relevance
  relative to an auditor who can only inspect publisher content (Table 2).
* **Totals count every charged impression**, viewable or not — totals and
  placement rows deliberately do not add up, as in the real console.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adnetwork.server import DeliveredImpression
from repro.util.stats import Fraction2

#: The aggregated placement name Google uses for anonymous sellers.
ANONYMOUS_PLACEMENT = "anonymous.google"


@dataclass(frozen=True)
class PlacementRow:
    """One row of the placements report."""

    placement: str
    impressions: int

    def __post_init__(self) -> None:
        if not self.placement:
            raise ValueError("placement must be non-empty")
        if self.impressions < 1:
            raise ValueError("a placement row needs at least one impression")

    @property
    def is_anonymous(self) -> bool:
        return self.placement == ANONYMOUS_PLACEMENT


@dataclass(frozen=True)
class ReportAggregate:
    """The mergeable counts behind one campaign's vendor report.

    A shard runner computes one of these per campaign over its own slice
    of delivered impressions; :func:`merge_aggregates` sums any number of
    them, and :meth:`VendorReporter.build` projects the merged counts into
    the :class:`VendorReport` the advertiser sees.  Integer counts merge
    exactly, so the merged report is byte-identical however the delivery
    stream was partitioned.
    """

    campaign_id: str
    total_impressions: int
    contextual_impressions: int
    #: (placement name, impression count), sorted by placement name.
    placement_counts: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.campaign_id:
            raise ValueError("campaign_id must be non-empty")
        if self.total_impressions < 0 or self.contextual_impressions < 0:
            raise ValueError("impression counts must be non-negative")


def merge_aggregates(aggregates: "list[ReportAggregate]",
                     campaign_id: str) -> ReportAggregate:
    """Sum per-shard aggregates for one campaign into a single aggregate."""
    total = 0
    contextual = 0
    placements: dict[str, int] = {}
    for aggregate in aggregates:
        if aggregate.campaign_id != campaign_id:
            raise ValueError(
                f"cannot merge aggregate for {aggregate.campaign_id!r} "
                f"into {campaign_id!r}")
        total += aggregate.total_impressions
        contextual += aggregate.contextual_impressions
        for name, count in aggregate.placement_counts:
            placements[name] = placements.get(name, 0) + count
    return ReportAggregate(
        campaign_id=campaign_id,
        total_impressions=total,
        contextual_impressions=contextual,
        placement_counts=tuple(sorted(placements.items())),
    )


@dataclass(frozen=True)
class VendorReport:
    """Everything the vendor console shows the advertiser for one campaign."""

    campaign_id: str
    total_impressions: int
    placements: tuple[PlacementRow, ...]
    contextual: Fraction2
    charged_eur: float
    refunded_eur: float

    @property
    def reported_publishers(self) -> set[str]:
        """Named publisher domains in the placements report (the anonymous
        aggregate is not a publisher identity and is excluded)."""
        return {row.placement for row in self.placements
                if not row.is_anonymous}

    @property
    def anonymous_impressions(self) -> int:
        """Impressions filed under ``anonymous.google``."""
        return sum(row.impressions for row in self.placements
                   if row.is_anonymous)


class VendorReporter:
    """Projects ground-truth impressions into vendor reports."""

    def __init__(self, viewable_only_placements: bool = True) -> None:
        #: The policy under test in ablation A1: set False to make the
        #: vendor disclose every delivered placement.
        self.viewable_only_placements = viewable_only_placements

    def aggregate(self, campaign_id: str,
                  impressions: list[DeliveredImpression]) -> ReportAggregate:
        """Count one campaign's impressions into a mergeable aggregate.

        Applies this reporter's placement-disclosure policy, so aggregates
        from different shards merge into exactly the counts a single pass
        over the concatenated impression list would have produced.
        """
        for impression in impressions:
            if impression.campaign.campaign_id != campaign_id:
                raise ValueError(
                    f"impression {impression.impression_id} belongs to "
                    f"{impression.campaign.campaign_id!r}, not {campaign_id!r}")
        placement_counts: dict[str, int] = {}
        contextual_count = 0
        for impression in impressions:
            if impression.match.claimed_contextual:
                contextual_count += 1
            if self.viewable_only_placements and \
                    not impression.exposure.vendor_viewable:
                continue
            publisher = impression.pageview.publisher
            name = ANONYMOUS_PLACEMENT if publisher.is_anonymous \
                else publisher.domain
            placement_counts[name] = placement_counts.get(name, 0) + 1
        return ReportAggregate(
            campaign_id=campaign_id,
            total_impressions=len(impressions),
            contextual_impressions=contextual_count,
            placement_counts=tuple(sorted(placement_counts.items())),
        )

    @staticmethod
    def build(aggregate: ReportAggregate,
              charged_eur: float = 0.0,
              refunded_eur: float = 0.0) -> VendorReport:
        """Project an aggregate (possibly merged) into a console report."""
        placements = tuple(PlacementRow(placement=name, impressions=count)
                           for name, count in aggregate.placement_counts)
        return VendorReport(
            campaign_id=aggregate.campaign_id,
            total_impressions=aggregate.total_impressions,
            placements=placements,
            contextual=Fraction2(aggregate.contextual_impressions,
                                 aggregate.total_impressions)
            if aggregate.total_impressions else Fraction2(0, 0),
            charged_eur=charged_eur,
            refunded_eur=refunded_eur,
        )

    def report(self, campaign_id: str,
               impressions: list[DeliveredImpression],
               charged_eur: float = 0.0,
               refunded_eur: float = 0.0) -> VendorReport:
        """Build the console report for one campaign."""
        return self.build(self.aggregate(campaign_id, impressions),
                          charged_eur=charged_eur,
                          refunded_eur=refunded_eur)
