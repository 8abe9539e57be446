"""Campaign specification.

Mirrors what an advertiser configures in the AdWords UI for a CPM display
campaign: targeted keywords, CPM bid, geographic targeting, flight dates and
budget.  ``frequency_cap`` defaults to None because the network imposes no
default cap — one of the paper's findings (§4.2, Figure 3).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CampaignSpec:
    """One display campaign, as configured by the advertiser."""

    campaign_id: str
    keywords: tuple[str, ...]
    cpm_eur: float
    target_countries: tuple[str, ...]
    start_unix: float
    end_unix: float
    daily_budget_eur: float = 50.0
    frequency_cap: Optional[int] = None
    #: Placement exclusions: domains (and the anonymous aggregate, via
    #: ``exclude_anonymous``) this campaign must never serve on.  This is
    #: the lever the paper's brand-safety audit feeds: blacklist the
    #: unsafe publishers the vendor never disclosed.
    excluded_domains: frozenset[str] = frozenset()
    exclude_anonymous: bool = False
    creative_id: str = ""

    def __post_init__(self) -> None:
        if not self.campaign_id:
            raise ValueError("campaign_id must be non-empty")
        if not self.keywords:
            raise ValueError("campaign needs at least one targeted keyword")
        if self.cpm_eur <= 0:
            raise ValueError("cpm_eur must be positive")
        if not self.target_countries:
            raise ValueError("campaign needs at least one target country")
        if self.end_unix <= self.start_unix:
            raise ValueError("campaign must end after it starts")
        if self.daily_budget_eur <= 0:
            raise ValueError("daily_budget_eur must be positive")
        if self.frequency_cap is not None and self.frequency_cap < 1:
            raise ValueError("frequency_cap must be >= 1 when set")
        normalized = frozenset(domain.lower() for domain in self.excluded_domains)
        if any(not domain for domain in normalized):
            raise ValueError("excluded domains must be non-empty strings")
        object.__setattr__(self, "excluded_domains", normalized)
        if not self.creative_id:
            object.__setattr__(self, "creative_id", f"{self.campaign_id}-creative")

    @property
    def bid_per_impression(self) -> float:
        """The CPM bid converted to a per-impression price in euros."""
        return self.cpm_eur / 1000.0

    def targets_country(self, country: str) -> bool:
        """True if the campaign's geo-targeting includes *country*."""
        return country in self.target_countries

    def excludes_publisher(self, domain: str, is_anonymous: bool = False) -> bool:
        """True when placement exclusions forbid serving on *domain*."""
        if self.exclude_anonymous and is_anonymous:
            return True
        return domain.lower() in self.excluded_domains

    def with_exclusions(self, domains, exclude_anonymous: bool | None = None
                        ) -> "CampaignSpec":
        """A copy of this campaign with *domains* added to the blacklist.

        The advertiser-side remediation step: feed the brand-safety
        audit's blacklist back into the campaign configuration.
        """
        import dataclasses

        merged = self.excluded_domains | frozenset(
            domain.lower() for domain in domains)
        return dataclasses.replace(
            self, excluded_domains=merged,
            exclude_anonymous=self.exclude_anonymous
            if exclude_anonymous is None else exclude_anonymous)

    @staticmethod
    def flight(year: int, start_month: int, start_day: int,
               end_month: int, end_day: int) -> tuple[float, float]:
        """Helper to express flight dates the way Table 1 does.

        The end date is inclusive: ``flight(2016, 3, 29, 3, 31)`` runs from
        March 29 00:00 UTC until April 1 00:00 UTC.
        """
        start = _dt.datetime(year, start_month, start_day,
                             tzinfo=_dt.timezone.utc).timestamp()
        end = (_dt.datetime(year, end_month, end_day, tzinfo=_dt.timezone.utc)
               + _dt.timedelta(days=1)).timestamp()
        if end <= start:
            raise ValueError("flight end date precedes its start date")
        return start, end
