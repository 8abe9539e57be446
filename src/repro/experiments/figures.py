"""Regeneration of the paper's figures (1–3) as data series.

Figures come out as the numeric series behind the plots — Venn counts,
per-bucket fractions, scatter points — printed as aligned text, so runs
are directly comparable with the paper and with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.brand_safety import BrandSafetyAudit, VennCounts
from repro.audit.frequency import FrequencyAudit
from repro.audit.popularity import PopularityAudit, RankDistribution
from repro.experiments.runner import ExperimentResult
from repro.util.stats import median
from repro.web.ranking import RankingService
from repro.util.tables import render_table

#: The five CPM-diverse campaigns Figure 2 plots.
FIGURE2_CAMPAIGNS = ("Russia", "Research-010", "Research-020",
                     "Football-010", "Football-030")

#: The campaign Figure 1 singles out.
FIGURE1_SPOTLIGHT = "General-005"


@dataclass(frozen=True)
class Figure1:
    """Publisher Venn: all campaigns aggregated + the spotlight campaign."""

    aggregate: VennCounts
    spotlight_id: str
    spotlight: VennCounts

    def render(self) -> str:
        rows = [
            ["All campaigns", self.aggregate.audit_only, self.aggregate.both,
             self.aggregate.vendor_only,
             str(self.aggregate.unreported_by_vendor),
             str(self.aggregate.unlogged_by_audit)],
            [self.spotlight_id, self.spotlight.audit_only, self.spotlight.both,
             self.spotlight.vendor_only,
             str(self.spotlight.unreported_by_vendor),
             str(self.spotlight.unlogged_by_audit)],
        ]
        return render_table(
            ["Scope", "Audit only", "Both", "Vendor only",
             "Unreported by vendor", "Unlogged by audit"],
            rows, title="Figure 1: publisher Venn diagram")


def figure1(result: ExperimentResult,
            spotlight: str = FIGURE1_SPOTLIGHT) -> Figure1:
    """Figure 1's Venn counts."""
    audit = result.dataset.audit(BrandSafetyAudit)
    return Figure1(
        aggregate=audit.venn(None),
        spotlight_id=spotlight,
        spotlight=audit.venn(spotlight),
    )


@dataclass(frozen=True)
class Figure2:
    """Rank-bucket distributions for the five CPM-diverse campaigns."""

    bucket_labels: tuple[str, ...]
    distributions: tuple[RankDistribution, ...]

    def render(self) -> str:
        sections = []
        for series_name, attribute in (("publishers", "publisher_fractions"),
                                       ("impressions", "impression_fractions")):
            headers = ["Alexa bucket"] + [
                f"{distribution.campaign_id}" for distribution in self.distributions]
            rows = []
            for index, label in enumerate(self.bucket_labels):
                row: list[object] = [label]
                for distribution in self.distributions:
                    row.append(f"{getattr(distribution, attribute)[index]:.3f}")
                rows.append(row)
            sections.append(render_table(
                headers, rows,
                title=f"Figure 2 ({series_name} fraction per rank bucket)",
                right_align=tuple(range(1, len(headers)))))
        return "\n\n".join(sections)


def figure2(result: ExperimentResult,
            campaign_ids: tuple[str, ...] = FIGURE2_CAMPAIGNS) -> Figure2:
    """Figure 2's distributions over Alexa-rank log buckets."""
    audit = result.dataset.audit(PopularityAudit)
    distributions = tuple(audit.distribution(campaign_id)
                          for campaign_id in campaign_ids)
    edges = list(distributions[0].bucket_edges) if distributions else []
    labels = tuple(RankingService.bucket_label(edges, index)
                   for index in range(len(edges)))
    return Figure2(bucket_labels=labels, distributions=distributions)


@dataclass(frozen=True)
class Figure3:
    """The frequency scatter, summarised into impression-count bins."""

    points: tuple[tuple[int, float], ...]
    users_over_10: int
    users_over_100: int

    def render(self) -> str:
        # Log-spaced impression bins keep the rendering compact while
        # preserving the scatter's shape.
        bins = [(2, 4), (5, 10), (11, 30), (31, 100), (101, 300), (301, 10**9)]
        rows = []
        for low, high in bins:
            gaps = [gap for count, gap in self.points if low <= count <= high]
            label = f"{low}-{high if high < 10**9 else '...'}"
            if gaps:
                rows.append([label, len(gaps), f"{median(gaps):.0f}",
                             f"{min(gaps):.0f}"])
            else:
                rows.append([label, 0, "-", "-"])
        table = render_table(
            ["Impressions per user", "Users", "Median inter-arrival (s)",
             "Min inter-arrival (s)"],
            rows, title="Figure 3: ad repetition per user (all campaigns)",
            right_align=(1, 2, 3))
        return (f"{table}\n"
                f"Users with >10 impressions of one ad: {self.users_over_10}\n"
                f"Users with >100 impressions of one ad: {self.users_over_100}")


def figure3(result: ExperimentResult) -> Figure3:
    """Figure 3's scatter and headline counts."""
    audit = result.dataset.audit(FrequencyAudit)
    summary = audit.summary(None)
    return Figure3(
        points=tuple(audit.scatter_series(None)),
        users_over_10=summary.users_over_10,
        users_over_100=summary.users_over_100,
    )
