"""Frequency-cap audit (paper Figure 3).

Groups impressions of one ad by user — user = (IP, User-Agent), so NAT
households with distinct browsers separate, and one person's two browsers
count twice, exactly as the paper defines it — and studies how many times
each user saw the ad and how quickly impressions repeated.  The absence of
any default cap shows up as users with hundreds of impressions at
sub-minute median inter-arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.audit.dataset import AuditDataset, memoised
from repro.util.stats import median


@dataclass(frozen=True, slots=True)
class UserFrequency:
    """One point of Figure 3's scatter."""

    user_key: str
    campaign_id: str
    impressions: int
    median_interarrival_seconds: Optional[float]   # None when impressions < 2
    min_interarrival_seconds: Optional[float]

    def __post_init__(self) -> None:
        if self.impressions < 1:
            raise ValueError("impressions must be positive")


@dataclass(frozen=True)
class FrequencySummary:
    """Aggregate cap statistics across all campaigns."""

    total_users: int
    users_over_10: int
    users_over_100: int
    max_impressions_single_user: int
    users_median_under_60s: int
    users_min_under_20s: int


class FrequencyAudit:
    """Per-user repetition analysis."""

    def __init__(self, dataset: AuditDataset) -> None:
        self.dataset = dataset

    @memoised
    def user_frequencies(self, campaign_id: Optional[str] = None
                         ) -> tuple[UserFrequency, ...]:
        """Scatter points, one per (user, ad) pair.

        With *campaign_id* None the analysis runs over every campaign and
        keeps (user, campaign) pairs separate, matching Figure 3's
        "impressions of a specific ad" framing.
        """
        campaign_ids = ([campaign_id] if campaign_id is not None
                        else self.dataset.campaign_ids)
        points: list[UserFrequency] = []
        for current in campaign_ids:
            grouped: dict[str, list[float]] = {}
            for user_key, timestamp in self.dataset.select(
                    current, "user_key", "timestamp"):
                grouped.setdefault(user_key, []).append(timestamp)
            for user_key, timestamps in grouped.items():
                # A single impression (most users) has no inter-arrival.
                median_gap = min_gap = None
                if len(timestamps) > 1:
                    timestamps.sort()
                    gaps = [after - before for before, after
                            in zip(timestamps, timestamps[1:])]
                    median_gap, min_gap = median(gaps), min(gaps)
                points.append(UserFrequency(
                    user_key=user_key,
                    campaign_id=current,
                    impressions=len(timestamps),
                    median_interarrival_seconds=median_gap,
                    min_interarrival_seconds=min_gap,
                ))
        return tuple(points)

    @memoised
    def summary(self, campaign_id: Optional[str] = None) -> FrequencySummary:
        """The headline numbers the paper quotes from Figure 3."""
        points = self.user_frequencies(campaign_id)
        return FrequencySummary(
            total_users=len(points),
            users_over_10=sum(1 for point in points if point.impressions > 10),
            users_over_100=sum(1 for point in points if point.impressions > 100),
            max_impressions_single_user=max(
                (point.impressions for point in points), default=0),
            users_median_under_60s=sum(
                1 for point in points
                if point.impressions > 10
                and point.median_interarrival_seconds is not None
                and point.median_interarrival_seconds < 60.0),
            users_min_under_20s=sum(
                1 for point in points
                if point.min_interarrival_seconds is not None
                and point.min_interarrival_seconds < 20.0),
        )

    def scatter_series(self, campaign_id: Optional[str] = None
                       ) -> list[tuple[int, float]]:
        """(impressions, median inter-arrival) pairs, Figure 3's axes.

        Users with a single impression have no inter-arrival time and are
        omitted, as in the paper's log-log scatter.
        """
        return [(point.impressions, point.median_interarrival_seconds)
                for point in self.user_frequencies(campaign_id)
                if point.median_interarrival_seconds is not None]

    def would_suppress(self, cap: int,
                       campaign_id: Optional[str] = None) -> int:
        """Impressions a per-user cap of *cap* would have suppressed —
        the ablation the paper's frequency discussion motivates."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        points = self.user_frequencies(campaign_id)
        return sum(max(0, point.impressions - cap) for point in points)
