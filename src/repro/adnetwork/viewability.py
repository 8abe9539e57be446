"""Exposure and viewability model.

Splits impression quality into the two quantities the paper distinguishes:

* **exposure time** — how long the ad's page stayed open after the creative
  rendered.  This is what the auditor can measure (connection duration),
  and its ≥ 1 s fraction is the *upper bound* viewability of Table 3.
* **vendor viewability** — the MRC standard the network itself measures:
  ≥ 50 % of pixels in-viewport for ≥ 1 s.  The network can see iframe
  geometry, the auditor cannot (Same-Origin policy).  Vendor-viewable
  impressions are the only ones that reach the placement report, which is
  the paper's explanation for the missing publishers of Figure 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.web.browsing import Pageview


@dataclass(frozen=True)
class Exposure:
    """Quality facts for one delivered impression."""

    render_delay: float       # seconds between page load and creative render
    exposure_seconds: float   # creative render → page unload
    pixels_in_view: bool      # did ≥50 % of the creative enter the viewport?

    @property
    def vendor_viewable(self) -> bool:
        """The network's MRC viewability verdict."""
        return self.pixels_in_view and self.exposure_seconds >= 1.0


@dataclass(frozen=True)
class ExposureConfig:
    """Rendering/layout knobs."""

    render_delay_min: float = 0.2
    render_delay_max: float = 2.8
    #: Probability that the slot is (or scrolls) into the viewport; higher
    #: on engaging pages where visitors scroll and dwell.
    base_in_view_prob: float = 0.33
    engagement_view_bonus: float = 0.20

    def __post_init__(self) -> None:
        if not 0 <= self.render_delay_min <= self.render_delay_max:
            raise ValueError("invalid render-delay range")
        if not 0.0 <= self.base_in_view_prob <= 1.0:
            raise ValueError("base_in_view_prob must be within [0, 1]")
        if self.engagement_view_bonus < 0:
            raise ValueError("engagement_view_bonus must be non-negative")


class ExposureModel:
    """Samples an :class:`Exposure` for each delivered impression."""

    def __init__(self, config: ExposureConfig | None = None) -> None:
        self.config = config or ExposureConfig()

    def sample(self, pageview: Pageview, rng: random.Random) -> Exposure:
        """Exposure for an ad delivered on *pageview*.

        Exposure time is the dwell remaining after the creative renders —
        engaged audiences (high-engagement publishers, long dwells) yield
        both longer exposures and higher in-view probability, which is what
        pushes the Football campaigns to the top of Table 3.
        """
        config = self.config
        render_delay = rng.uniform(config.render_delay_min,
                                   config.render_delay_max)
        exposure = max(0.0, pageview.dwell_seconds - render_delay)
        in_view_prob = min(0.97, config.base_in_view_prob
                           + config.engagement_view_bonus
                           * (pageview.publisher.engagement - 1.0))
        pixels_in_view = rng.random() < max(0.05, in_view_prob)
        return Exposure(render_delay=render_delay,
                        exposure_seconds=exposure,
                        pixels_in_view=pixels_in_view)
