"""Data-center bot fleets.

The fraud the paper detects (§4.2): bots installed on servers that are sent
to websites to view ads.  A fleet lives inside one data-center provider's
address space, pretends to be located in a target country (so geo-targeted
campaigns still match), concentrates on publishers in high-payout verticals,
and browses far more than any human — with shallow page dwell.

The fleets are what make the Football campaigns show ~10 % data-center
impressions while the Research/General campaigns stay around or below 1 %
(Table 4): sports inventory is where this fleet's operators monetise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geo.providers import Provider, ProviderKind, ProviderRegistry
from repro.net.useragent import generate_user_agent


@dataclass(frozen=True)
class Bot:
    """One bot instance: a server IP pretending to be a visitor."""

    bot_id: int
    fleet_id: int
    ip: str
    user_agent: str
    claimed_country: str
    target_topics: tuple[str, ...]
    daily_pageviews: float
    dwell_seconds: float
    focus_size: int = 0

    def __post_init__(self) -> None:
        if self.daily_pageviews <= 0:
            raise ValueError("daily_pageviews must be positive")
        if self.dwell_seconds <= 0:
            raise ValueError("dwell_seconds must be positive")


@dataclass(frozen=True)
class BotConfig:
    """Fleet-shape knobs."""

    bots_per_fleet: int = 25
    fleet_count: int = 2
    daily_pageviews_min: float = 40.0
    daily_pageviews_max: float = 160.0
    dwell_min: float = 1.2
    dwell_max: float = 8.0
    #: A small share of bots run far hotter than the rest — the extreme
    #: upper-right region of Figure 3 (hundreds of impressions, sub-20 s
    #: inter-arrival) comes from these.
    aggressive_fraction: float = 0.0
    aggressive_multiplier: float = 1.0
    #: When positive, every bot of a fleet works the same small list of
    #: target sites (operators monetise specific partner publishers, they
    #: do not roam the whole web) — this is what keeps the fraction of
    #: *publishers* exposed to data-center traffic bounded in Table 4.
    fleet_focus_size: int = 0
    #: Verticals the operators monetise, with fleet-assignment weights.
    target_profile: tuple[tuple[str, float], ...] = (
        ("sports", 0.62), ("entertainment", 0.22), ("news", 0.16))

    def __post_init__(self) -> None:
        if self.bots_per_fleet < 1 or self.fleet_count < 1:
            raise ValueError("fleet sizes must be positive")
        if not 0 < self.daily_pageviews_min <= self.daily_pageviews_max:
            raise ValueError("invalid pageview range")
        if not 0 < self.dwell_min <= self.dwell_max:
            raise ValueError("invalid dwell range")
        if not self.target_profile:
            raise ValueError("target_profile must be non-empty")
        if not 0.0 <= self.aggressive_fraction <= 1.0:
            raise ValueError("aggressive_fraction must be within [0, 1]")
        if self.aggressive_multiplier < 1.0:
            raise ValueError("aggressive_multiplier must be >= 1")
        if self.fleet_focus_size < 0:
            raise ValueError("fleet_focus_size must be non-negative")


class BotFleet:
    """A collection of bots spread over data-center providers."""

    def __init__(self, rng: random.Random, registry: ProviderRegistry,
                 countries: tuple[str, ...] = ("ES",),
                 config: BotConfig | None = None) -> None:
        self.config = config or BotConfig()
        datacenters = registry.datacenter_providers(include_vpn=False)
        if not datacenters:
            raise ValueError("registry has no data-center providers")
        self.bots: list[Bot] = []
        verticals = [name for name, _ in self.config.target_profile]
        weights = [weight for _, weight in self.config.target_profile]
        next_id = 1
        for fleet_index in range(self.config.fleet_count):
            fleet_id = rng.getrandbits(32)
            country = rng.choice(countries)
            # Operators rent servers geolocated in the country the targeted
            # campaigns pay for, so geo-targeting does not filter them out.
            local = [provider for provider in datacenters
                     if provider.country == country]
            provider = rng.choice(local if local else datacenters)
            for _ in range(self.config.bots_per_fleet):
                # Each bot rotates its own target vertical: one fleet
                # monetises several content segments at once.
                vertical = rng.choices(verticals, weights=weights, k=1)[0]
                self.bots.append(self._make_bot(rng, next_id, fleet_id,
                                                provider, vertical, country))
                next_id += 1

    def _make_bot(self, rng: random.Random, bot_id: int, fleet_id: int,
                  provider: Provider, vertical: str, country: str) -> Bot:
        if provider.kind != ProviderKind.DATACENTER:
            raise ValueError("bots must be hosted in data-center space")
        config = self.config
        # Operators mix headless browsers with spoofed desktop UAs.
        browser = "headless" if rng.random() < 0.4 else "chrome"
        daily = rng.uniform(config.daily_pageviews_min,
                            config.daily_pageviews_max)
        if rng.random() < config.aggressive_fraction:
            daily *= config.aggressive_multiplier
        return Bot(
            bot_id=bot_id,
            fleet_id=fleet_id,
            ip=provider.random_ip(rng),
            user_agent=generate_user_agent(rng, device="server", browser=browser),
            claimed_country=country,
            target_topics=(vertical,),
            daily_pageviews=daily,
            dwell_seconds=rng.uniform(config.dwell_min, config.dwell_max),
            focus_size=config.fleet_focus_size,
        )

    def __len__(self) -> int:
        return len(self.bots)
