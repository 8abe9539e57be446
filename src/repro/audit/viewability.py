"""Viewability audit (paper Table 3).

The beacon measures exposure as connection duration but — thanks to the
Same-Origin Policy — cannot see whether the creative's pixels were in the
viewport.  The audit therefore reports the *upper bound* of the MRC
viewability standard: the fraction of impressions exposed for ≥ 1 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.dataset import AuditDataset, memoised
from repro.util.stats import Fraction2, percentile


@dataclass(frozen=True)
class ViewabilityResult:
    """Table 3 row for one campaign (plus exposure distribution facts)."""

    campaign_id: str
    viewable_upper_bound: Fraction2
    median_exposure_seconds: float
    p90_exposure_seconds: float
    truncated_records: int


class ViewabilityAudit:
    """Exposure-time analysis over the collected dataset."""

    def __init__(self, dataset: AuditDataset,
                 min_exposure_seconds: float = 1.0) -> None:
        if min_exposure_seconds <= 0:
            raise ValueError("min_exposure_seconds must be positive")
        self.dataset = dataset
        self.min_exposure_seconds = min_exposure_seconds

    @memoised
    def assess(self, campaign_id: str) -> ViewabilityResult:
        """Upper-bound viewability for one campaign."""
        rows = self.dataset.select(campaign_id, "exposure_seconds",
                                   "truncated")
        if not rows:
            return ViewabilityResult(campaign_id=campaign_id,
                                     viewable_upper_bound=Fraction2(0, 0),
                                     median_exposure_seconds=0.0,
                                     p90_exposure_seconds=0.0,
                                     truncated_records=0)
        exposures = [exposure for exposure, _ in rows]
        viewable = sum(1 for exposure in exposures
                       if exposure >= self.min_exposure_seconds)
        return ViewabilityResult(
            campaign_id=campaign_id,
            viewable_upper_bound=Fraction2(viewable, len(rows)),
            median_exposure_seconds=percentile(exposures, 50.0),
            p90_exposure_seconds=percentile(exposures, 90.0),
            truncated_records=sum(1 for _, truncated in rows if truncated),
        )

    def table(self) -> list[ViewabilityResult]:
        """Table 3: one row per campaign, configuration order."""
        return [self.assess(campaign_id)
                for campaign_id in self.dataset.campaign_ids]

    def mrc_estimate(self, campaign_id: str) -> "MrcEstimate":
        """Full MRC viewability, measured where SafeFrames allow it.

        The paper's §3.1 limitation (Same-Origin Policy hides the iframe's
        position) lifts on SafeFrame inventory, where the script reports
        pixel visibility.  There the audit can apply the complete MRC
        standard — ≥ 50 % of pixels in view for ≥ 1 s — and extrapolate it
        to the rest of the campaign as an estimate.
        """
        rows = self.dataset.select(campaign_id, "exposure_seconds",
                                   "pixels_in_view")
        measurable = [(exposure, pixels) for exposure, pixels in rows
                      if pixels is not None]
        mrc_viewable = sum(
            1 for exposure, pixels in measurable
            if pixels and exposure >= self.min_exposure_seconds)
        upper = self.assess(campaign_id).viewable_upper_bound
        if measurable:
            mrc = Fraction2(mrc_viewable, len(measurable))
            # Scale the campaign-wide upper bound by the measured
            # pixels-given-exposure conditional.
            exposed = sum(1 for exposure, _ in measurable
                          if exposure >= self.min_exposure_seconds)
            conditional = (mrc_viewable / exposed) if exposed else 0.0
            extrapolated = upper.value * conditional
        else:
            mrc = Fraction2(0, 0)
            extrapolated = 0.0
        return MrcEstimate(
            campaign_id=campaign_id,
            measurable_impressions=len(measurable),
            total_impressions=len(rows),
            mrc_viewable_on_safeframe=mrc,
            upper_bound=upper,
            extrapolated_mrc=extrapolated,
        )


@dataclass(frozen=True)
class MrcEstimate:
    """SafeFrame-based full-MRC viewability assessment."""

    campaign_id: str
    measurable_impressions: int
    total_impressions: int
    mrc_viewable_on_safeframe: Fraction2
    upper_bound: Fraction2
    extrapolated_mrc: float

    @property
    def coverage(self) -> Fraction2:
        """Share of impressions where pixel geometry was measurable."""
        return Fraction2(self.measurable_impressions,
                         self.total_impressions) if self.total_impressions \
            else Fraction2(0, 0)

    @property
    def upper_bound_inflation(self) -> float:
        """How much the connection-duration bound overstates true MRC
        viewability (percentage points)."""
        return self.upper_bound.pct - 100.0 * self.extrapolated_mrc
