"""Browsing simulation: turning populations into time-ordered pageviews.

Humans browse in sessions with diurnal rhythm, favourite sites, and
interest-biased publisher choice; bots grind around the clock on their
target verticals.  The output is a single time-merged stream of
:class:`Pageview` events — the raw material every ad delivery starts from.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.taxonomy.tree import TaxonomyTree
from repro.util.hashing import stable_hash
from repro.web.bots import Bot
from repro.web.population import PublisherUniverse
from repro.web.publisher import Publisher
from repro.web.users import Device

_SECONDS_PER_DAY = 86_400.0

#: Relative session-start weight per hour of day (UTC); evenings dominate.
_DIURNAL = [0.25, 0.15, 0.10, 0.08, 0.08, 0.12, 0.25, 0.45,
            0.65, 0.80, 0.90, 0.95, 1.00, 0.95, 0.90, 0.90,
            0.95, 1.00, 1.10, 1.20, 1.25, 1.15, 0.80, 0.45]


@dataclass(frozen=True)
class Pageview:
    """One page load by one visitor.

    ``is_bot`` and ``visitor_id`` are simulation ground truth — the
    collector never sees them; the audit must rediscover bots from the IP
    alone, as the paper does.
    """

    timestamp: float
    publisher: Publisher
    url: str
    ip: str
    user_agent: str
    country: str
    interests: tuple[str, ...]
    dwell_seconds: float
    is_bot: bool
    visitor_id: int

    def __post_init__(self) -> None:
        if self.dwell_seconds <= 0:
            raise ValueError("dwell_seconds must be positive")


@dataclass(frozen=True)
class BrowsingConfig:
    """Session-shape knobs."""

    pages_per_session_mean: float = 8.0
    think_time_min: float = 2.0
    think_time_max: float = 25.0
    favorite_count: int = 4
    favorite_revisit_prob: float = 0.45
    human_dwell_median: float = 3.0
    human_dwell_sigma: float = 1.1
    bot_burst_pages: int = 15
    bot_burst_think_min: float = 0.5
    bot_burst_think_max: float = 3.0

    def __post_init__(self) -> None:
        if self.pages_per_session_mean <= 0:
            raise ValueError("pages_per_session_mean must be positive")
        if not 0 < self.think_time_min <= self.think_time_max:
            raise ValueError("invalid think-time range")
        if self.favorite_count < 0:
            raise ValueError("favorite_count must be non-negative")
        if not 0.0 <= self.favorite_revisit_prob <= 1.0:
            raise ValueError("favorite_revisit_prob must be within [0, 1]")
        if self.human_dwell_median <= 0 or self.human_dwell_sigma <= 0:
            raise ValueError("dwell parameters must be positive")
        if self.bot_burst_pages < 1:
            raise ValueError("bot_burst_pages must be positive")
        if not 0 < self.bot_burst_think_min <= self.bot_burst_think_max:
            raise ValueError("invalid bot think-time range")


def poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw; Knuth for small lambda, normal approximation above 60."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        return 0
    if lam > 60:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class BrowsingSimulator:
    """Generates pageview streams over a publisher universe."""

    def __init__(self, universe: PublisherUniverse, tree: TaxonomyTree,
                 config: BrowsingConfig | None = None) -> None:
        self.universe = universe
        self.tree = tree
        self.config = config or BrowsingConfig()
        self._fleet_focus: dict[tuple, list[Publisher]] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def stream(self, humans: Iterable[Device], bots: Iterable[Bot],
               window_start: float, window_end: float,
               rng: random.Random) -> Iterator[Pageview]:
        """Time-merged pageview stream for one simulation window.

        Per-visitor substreams are individually time-sorted generators;
        a heap merge yields the global stream in timestamp order without
        materialising it (memory stays O(#visitors)).
        """
        if window_end <= window_start:
            raise ValueError("window must have positive duration")
        generators: list[Iterator[Pageview]] = []
        for device in humans:
            child = random.Random(rng.getrandbits(64))
            generators.append(self._human_stream(device, window_start,
                                                 window_end, child))
        for bot in bots:
            child = random.Random(rng.getrandbits(64))
            generators.append(self._bot_stream(bot, window_start,
                                               window_end, child))
        return heapq.merge(*generators, key=lambda view: view.timestamp)

    # ------------------------------------------------------------------ #
    # humans
    # ------------------------------------------------------------------ #

    def _human_stream(self, device: Device, start: float, end: float,
                      rng: random.Random) -> Iterator[Pageview]:
        config = self.config
        days = (end - start) / _SECONDS_PER_DAY
        total = poisson(rng, device.daily_pageviews * days)
        if total == 0:
            return
        # What stays fixed for the stream is bound once.
        sample_publisher = self.universe.sample_pageview_publisher
        draw, choice, randrange = rng.random, rng.choice, rng.randrange
        lognormvariate, uniform = rng.lognormvariate, rng.uniform
        pick_user_agent = device.pick_user_agent
        interests, country = device.interests, device.country
        ip, visitor_id = device.ip, device.user_id
        revisit_prob = config.favorite_revisit_prob
        # The dwell median is (median * engagement) * publisher.engagement,
        # associated left to right as the product is written.
        dwell_median = config.human_dwell_median * device.engagement
        dwell_sigma = config.human_dwell_sigma
        think_min, think_max = config.think_time_min, config.think_time_max
        favorites = [sample_publisher(rng, interests, country)
                     for _ in range(config.favorite_count)]
        session_count = max(1, int(round(total / config.pages_per_session_mean)))
        starts = sorted(self._session_start(start, end, rng)
                        for _ in range(session_count))
        base, extra = divmod(total, session_count)
        now = 0.0
        for index, session_start in enumerate(starts):
            pages = base + (1 if index < extra else 0)
            now = max(now, session_start)
            for page in range(pages):
                if favorites and draw() < revisit_prob:
                    publisher = choice(favorites)
                else:
                    publisher = sample_publisher(rng, interests, country)
                dwell = max(0.2, lognormvariate(
                    math.log(dwell_median * publisher.engagement), dwell_sigma))
                yield Pageview(
                    timestamp=now,
                    publisher=publisher,
                    url=publisher.url_for_page(randrange(100_000)),
                    ip=ip,
                    user_agent=pick_user_agent(rng),
                    country=country,
                    interests=interests,
                    dwell_seconds=dwell,
                    is_bot=False,
                    visitor_id=visitor_id,
                )
                now += dwell + uniform(think_min, think_max)

    @staticmethod
    def _session_start(start: float, end: float, rng: random.Random) -> float:
        """Diurnally weighted session start within the window."""
        span_days = max(1, int(math.ceil((end - start) / _SECONDS_PER_DAY)))
        day = rng.randrange(span_days)
        hour = rng.choices(range(24), weights=_DIURNAL, k=1)[0]
        moment = (start + day * _SECONDS_PER_DAY + hour * 3600.0
                  + rng.random() * 3600.0)
        # Clamp into the window (the last partial day can overshoot).
        return min(max(moment, start), end - 1.0)

    # ------------------------------------------------------------------ #
    # bots
    # ------------------------------------------------------------------ #

    def _bot_stream(self, bot: Bot, start: float, end: float,
                    rng: random.Random) -> Iterator[Pageview]:
        days = (end - start) / _SECONDS_PER_DAY
        total = poisson(rng, bot.daily_pageviews * days)
        if total == 0:
            return
        targets = self._bot_targets(bot)
        if not targets:
            return
        # Bots grind in bursts around the clock (no diurnal rhythm — itself
        # a real-world detection signal we keep in the data): a run of
        # pages back-to-back, then idle until the next burst.  The bursts
        # are what produce the sub-20-second ad inter-arrival times in the
        # extreme region of Figure 3.
        config = self.config
        burst_count = max(1, total // config.bot_burst_pages)
        burst_starts = sorted(start + rng.random() * (end - start - 1.0)
                              for _ in range(burst_count))
        base, extra = divmod(total, burst_count)
        now = start
        for index, burst_start in enumerate(burst_starts):
            pages = base + (1 if index < extra else 0)
            now = max(now, burst_start)
            for _ in range(pages):
                publisher = rng.choice(targets)
                dwell = max(0.3, rng.gauss(bot.dwell_seconds, 0.8))
                yield Pageview(
                    timestamp=min(now, end - 0.001),
                    publisher=publisher,
                    url=publisher.url_for_page(rng.randrange(100_000)),
                    ip=bot.ip,
                    user_agent=bot.user_agent,
                    country=bot.claimed_country,
                    interests=bot.target_topics,
                    dwell_seconds=dwell,
                    is_bot=True,
                    visitor_id=-bot.bot_id,
                )
                now += dwell + rng.uniform(config.bot_burst_think_min,
                                           config.bot_burst_think_max)

    def _bot_targets(self, bot: Bot) -> list[Publisher]:
        targets: list[Publisher] = []
        seen: set[str] = set()
        for vertical in bot.target_topics:
            nodes = self.tree.subtree(vertical) if vertical in self.tree \
                else [vertical]
            for node in nodes:
                for publisher in self.universe.matching_publishers(node):
                    if publisher.domain not in seen:
                        seen.add(publisher.domain)
                        targets.append(publisher)
        if bot.focus_size and len(targets) > bot.focus_size:
            # Every bot of a fleet shares the operator's site list: the
            # subset is keyed by the fleet, not the bot.
            key = (bot.fleet_id, bot.target_topics, bot.focus_size)
            if key not in self._fleet_focus:
                chooser = random.Random(stable_hash(
                    "fleet-focus", str(bot.fleet_id), *bot.target_topics))
                self._fleet_focus[key] = chooser.sample(targets,
                                                        bot.focus_size)
            return self._fleet_focus[key]
        return targets
