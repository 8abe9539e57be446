"""Human user population.

Each user owns a device behind an ISP-assigned IP (possibly shared through
a NAT with other users), one or two User-Agent strings, a set of topical
interests, and a heavy-tailed daily pageview budget.  The frequency-cap
audit identifies users as (IP, User-Agent) pairs — exactly why NATs and
multi-UA users matter here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geo.providers import ProviderRegistry
from repro.net.useragent import generate_user_agent
from repro.taxonomy.tree import TaxonomyTree

#: Interests are drawn from these verticals' subtrees, weighted by how
#: mainstream the vertical is: football fans are everywhere, people with a
#: research/academia interest profile are rare.  This asymmetry is what
#: lets the network fill a Football campaign behaviourally while a Research
#: campaign has to fall back to run-of-network inventory (Table 2).
_INTEREST_VERTICALS: tuple[tuple[str, float], ...] = (
    ("news", 0.23), ("sports", 0.27), ("entertainment", 0.22),
    ("technology", 0.10), ("lifestyle", 0.125), ("commerce", 0.05),
    ("science", 0.005),
)


@dataclass(frozen=True)
class Device:
    """A browsing identity: one human (or NAT-mate) on one browser."""

    user_id: int
    country: str
    ip: str
    user_agents: tuple[str, ...]
    interests: tuple[str, ...]
    daily_pageviews: float
    engagement: float          # dwell-time multiplier, ~1.0 for the median user
    behind_nat: bool = False

    def __post_init__(self) -> None:
        if not self.user_agents:
            raise ValueError("device needs at least one User-Agent")
        if self.daily_pageviews <= 0:
            raise ValueError("daily_pageviews must be positive")
        if self.engagement <= 0:
            raise ValueError("engagement must be positive")

    def pick_user_agent(self, rng: random.Random) -> str:
        """The UA for one pageview (primary browser strongly preferred)."""
        if len(self.user_agents) == 1 or rng.random() < 0.8:
            return self.user_agents[0]
        return rng.choice(self.user_agents[1:])


@dataclass(frozen=True)
class PopulationConfig:
    """Population-shape knobs."""

    users_per_country: int = 6_000
    nat_fraction: float = 0.12
    nat_group_size: int = 4
    multi_ua_fraction: float = 0.3
    pareto_alpha: float = 1.3
    median_daily_pageviews: float = 18.0
    interests_min: int = 2
    interests_max: int = 5

    def __post_init__(self) -> None:
        if self.users_per_country < 1:
            raise ValueError("users_per_country must be positive")
        if not 0.0 <= self.nat_fraction <= 1.0:
            raise ValueError("nat_fraction must be within [0, 1]")
        if self.nat_group_size < 2:
            raise ValueError("nat_group_size must be at least 2")
        if self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 (finite mean)")
        if not 1 <= self.interests_min <= self.interests_max:
            raise ValueError("invalid interests range")


class UserPopulation:
    """Generates and indexes the human devices of the simulated countries."""

    def __init__(self, rng: random.Random, registry: ProviderRegistry,
                 tree: TaxonomyTree, countries: tuple[str, ...] = ("ES", "RU", "US"),
                 config: PopulationConfig | None = None) -> None:
        self.config = config or PopulationConfig()
        self.devices: list[Device] = []
        interest_pool = self._interest_pool(tree)
        if not interest_pool[0]:
            raise ValueError("taxonomy has no interest verticals")
        next_user_id = 1
        for country in countries:
            providers = registry.access_providers(country)
            if not providers:
                raise ValueError(f"no access providers registered for {country}")
            remaining = self.config.users_per_country
            while remaining > 0:
                nat = rng.random() < self.config.nat_fraction
                group = min(self.config.nat_group_size, remaining) if nat else 1
                provider = rng.choice(providers)
                shared_ip = provider.random_ip(rng)
                for _ in range(group):
                    self.devices.append(self._make_device(
                        rng, next_user_id, country, shared_ip,
                        interest_pool, behind_nat=group > 1))
                    next_user_id += 1
                    remaining -= 1

    @staticmethod
    def _interest_pool(tree: TaxonomyTree) -> tuple[list[str], list[float]]:
        """Interest nodes and their sampling weights.

        Each vertical's weight is split evenly over its subtree, so adding
        topics to a vertical does not make the vertical more popular.
        """
        nodes: list[str] = []
        weights: list[float] = []
        for vertical, vertical_weight in _INTEREST_VERTICALS:
            if vertical not in tree:
                continue
            subtree = tree.subtree(vertical)
            for node in subtree:
                nodes.append(node)
                weights.append(vertical_weight / len(subtree))
        return nodes, weights

    def _make_device(self, rng: random.Random, user_id: int, country: str,
                     ip: str, interest_pool: tuple[list[str], list[float]],
                     behind_nat: bool) -> Device:
        config = self.config
        device_class = "mobile" if rng.random() < 0.35 else "desktop"
        ua_count = 2 if rng.random() < config.multi_ua_fraction else 1
        user_agents = tuple(generate_user_agent(rng, device=device_class)
                            for _ in range(ua_count))
        nodes, weights = interest_pool
        interest_count = min(rng.randint(config.interests_min,
                                         config.interests_max), len(nodes))
        chosen: list[str] = []
        seen: set[str] = set()
        while len(chosen) < interest_count:
            node = rng.choices(nodes, weights=weights, k=1)[0]
            if node not in seen:
                seen.add(node)
                chosen.append(node)
        interests = tuple(chosen)
        # Pareto activity: median scaled to config; the tail produces the
        # heavy receivers Figure 3's upper-right region is made of.
        pareto = rng.paretovariate(config.pareto_alpha)
        median_pareto = 2 ** (1.0 / config.pareto_alpha)
        daily = config.median_daily_pageviews * pareto / median_pareto
        return Device(
            user_id=user_id,
            country=country,
            ip=ip,
            user_agents=user_agents,
            interests=interests,
            daily_pageviews=min(daily, 2_500.0),
            engagement=rng.uniform(0.5, 1.6),
            behind_nat=behind_nat,
        )

    def __len__(self) -> int:
        return len(self.devices)

    def in_country(self, country: str) -> list[Device]:
        """Devices located in *country*."""
        return [device for device in self.devices if device.country == country]
