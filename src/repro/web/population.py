"""Publisher universe generation.

Builds the synthetic counterpart of the Google Display Network's inventory:
thousands of publishers with Zipf pageview popularity, Alexa-style global
ranks, topical content drawn from the taxonomy, per-vertical engagement,
auction economics, and the behavioural quirks the audit later surfaces
(anonymous exchange sellers, third-party-script blockers, unsafe sites).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from repro.taxonomy.lexicon import Lexicon, build_default_lexicon
from repro.util.rng import CumulativeSampler, zipf_weights
from repro.web.publisher import Publisher
from repro.web.ranking import RankingService

#: vertical → (weight in the universe, engagement multiplier).  Engagement
#: drives dwell/exposure time: sports pages hold visitors (live scores,
#: match threads) while reference/science pages are skimmed — this is what
#: makes the Football campaigns' viewability land higher (Table 3).
_VERTICALS: dict[str, tuple[float, float]] = {
    "news": (0.22, 1.00),
    "sports": (0.16, 2.10),
    "entertainment": (0.17, 1.30),
    "technology": (0.11, 0.95),
    "lifestyle": (0.14, 1.05),
    "commerce": (0.11, 0.85),
    "science": (0.03, 0.70),
    "unsafe": (0.06, 1.10),
}

_DOMAIN_STEMS: dict[str, list[str]] = {
    "news": ["diario", "gazette", "noticias", "courier", "herald", "tribune",
             "vesti", "daily", "portada", "actualidad"],
    "sports": ["futbol", "golazo", "marcador", "deporte", "sportarena",
               "laliga-fans", "penalti", "cancha", "fichajes", "stadium"],
    "entertainment": ["cineplex", "serieadictos", "melodia", "farandula",
                      "gamerzone", "estrenos", "risas", "teleguia"],
    "technology": ["tecnoblog", "gadgetero", "codigo", "bitacora", "devnotes",
                   "movilzona", "hackwire"],
    "lifestyle": ["viajeros", "recetario", "modaviva", "saludable", "hogareno",
                  "motorpasion", "escapadas"],
    "commerce": ["chollos", "anuncios", "bolsaplus", "empleoya", "pisoideal",
                 "subastas", "descuentos"],
    "science": ["investigacion", "cienciahoy", "campus", "revista-i",
                "labnotes", "sabio", "tesis"],
    "unsafe": ["descargaloya", "apuestafacil", "torrentera", "clickcebo",
               "ruleta24", "contenidox"],
}

_SUFFIX_BY_COUNTRY = {"ES": ".es", "RU": ".ru", "US": ".com", "GLOBAL": ".net"}


@dataclass(frozen=True)
class UniverseConfig:
    """Knobs for universe generation.

    Defaults reproduce the paper-scale world; tests shrink ``publisher_count``.
    """

    publisher_count: int = 9_000
    max_global_rank: int = 10_000_000
    zipf_exponent: float = 1.3
    anonymous_fraction: float = 0.10
    script_blocking_fraction: float = 0.15
    #: Share of publishers serving ads in SafeFrame-style transparent
    #: iframes (geometry visible to the creative's script).
    safeframe_fraction: float = 0.22
    country_shares: tuple[tuple[str, float], ...] = (
        ("ES", 0.38), ("RU", 0.16), ("US", 0.26), ("GLOBAL", 0.20))

    def __post_init__(self) -> None:
        if self.publisher_count < 1:
            raise ValueError("publisher_count must be positive")
        if self.max_global_rank < self.publisher_count:
            raise ValueError("max_global_rank must cover publisher_count")
        for name in ("anonymous_fraction", "script_blocking_fraction",
                     "safeframe_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        total = sum(share for _, share in self.country_shares)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError("country shares must sum to 1")


class PublisherUniverse:
    """The generated inventory plus popularity sampling machinery."""

    def __init__(self, rng: random.Random,
                 config: UniverseConfig | None = None,
                 lexicon: Lexicon | None = None) -> None:
        self.config = config or UniverseConfig()
        self.lexicon = lexicon or build_default_lexicon()
        self._keywords_by_topic = self._reverse_lexicon(self.lexicon)
        self.publishers: list[Publisher] = self._generate(rng)
        self.ranking = RankingService(self.publishers,
                                      max_rank=self.config.max_global_rank)
        # Pageview popularity follows Zipf over rank order.
        self._popularity = CumulativeSampler(
            zipf_weights(len(self.publishers), self.config.zipf_exponent))
        # Topic sets as bit masks (one bit per topic), so "carries one of
        # the interests" is one AND.  Both caches below fill on first use.
        self._topic_bits: dict[str, int] = {}
        self._topic_masks: list[int] = []
        for publisher in self.publishers:
            mask = 0
            for topic in publisher.topics:
                mask |= self._topic_bits.setdefault(
                    topic, 1 << len(self._topic_bits))
            self._topic_masks.append(mask)
        #: country -> topic mask per publisher index, 0 where the focus is
        #: neither the country nor GLOBAL (no country: every focus).
        self._local_masks: dict[str, list[int]] = {}
        #: interests -> the bits of their topics (no interests: every bit).
        self._interest_bits: dict[tuple[str, ...], int] = {}

    @staticmethod
    def _reverse_lexicon(lexicon: Lexicon) -> dict[str, list[str]]:
        reverse: dict[str, list[str]] = {}
        for keyword in lexicon.vocabulary():
            node = lexicon.topic_of(keyword)
            if node is not None:
                reverse.setdefault(node, []).append(keyword)
        return reverse

    def _generate(self, rng: random.Random) -> list[Publisher]:
        config = self.config
        count = config.publisher_count
        # Global ranks: log-uniform over [1, max_rank], sorted so publisher 0
        # is the most popular.  This reproduces Alexa's long tail: only a
        # handful of our publishers sit in the top 1K, most in the millions.
        ranks: set[int] = set()
        while len(ranks) < count:
            exponent = rng.uniform(0.0, math.log10(config.max_global_rank))
            ranks.add(max(1, int(round(10 ** exponent))))
        ordered_ranks = sorted(ranks)

        verticals = list(_VERTICALS)
        vertical_weights = [_VERTICALS[name][0] for name in verticals]
        countries = [country for country, _ in config.country_shares]
        country_weights = [share for _, share in config.country_shares]

        publishers: list[Publisher] = []
        seen_domains: set[str] = set()
        tree = self.lexicon.tree
        for index in range(count):
            vertical = rng.choices(verticals, weights=vertical_weights, k=1)[0]
            country = rng.choices(countries, weights=country_weights, k=1)[0]
            rank = ordered_ranks[index]
            # Topics: 1-3 nodes from the vertical's subtree.
            subtree = tree.subtree(vertical)
            topic_count = min(len(subtree), rng.randint(1, 3))
            topics = tuple(rng.sample(subtree, topic_count))
            keywords: list[str] = []
            for topic in topics:
                keywords.extend(self._keywords_by_topic.get(topic, []))
                keywords.append(topic.replace("-", " "))
            # Popular publishers command higher floors and attract premium
            # demand; the long tail is remnant inventory.  Floors are noisy
            # on purpose: the market is not perfectly rank-priced, which is
            # half of the paper's Figure 2 story.
            popularity = 1.0 - index / count          # 1.0 = most popular
            floor_cpm = round(0.002 + 0.25 * (popularity ** 3) * rng.uniform(0.2, 1.0), 4)
            # Premium demand tracks the *global* rank tier: top-10K sites
            # are premium inventory that external advertisers contest on
            # nearly every pageview; the deep tail is pure remnant.
            if rank < 10_000:
                premium_base = 0.88
            elif rank < 100_000:
                premium_base = 0.55
            elif rank < 1_000_000:
                premium_base = 0.45
            else:
                premium_base = 0.08
            premium_demand = min(0.98, premium_base * rng.uniform(0.85, 1.1))
            engagement = _VERTICALS[vertical][1] * rng.uniform(0.7, 1.3)
            domain = self._make_domain(rng, vertical, country, seen_domains)
            seen_domains.add(domain)
            publishers.append(Publisher(
                domain=domain,
                global_rank=rank,
                country_focus=country,
                topics=topics,
                keywords=tuple(dict.fromkeys(keywords)),
                is_anonymous=rng.random() < config.anonymous_fraction,
                blocks_scripts=rng.random() < config.script_blocking_fraction,
                safeframe=rng.random() < config.safeframe_fraction,
                unsafe=vertical == "unsafe",
                engagement=engagement,
                floor_cpm=floor_cpm,
                premium_demand=premium_demand,
                ad_slots=rng.randint(1, 3),
            ))
        return publishers

    @staticmethod
    def _make_domain(rng: random.Random, vertical: str, country: str,
                     seen: set[str]) -> str:
        suffix = _SUFFIX_BY_COUNTRY[country]
        for _ in range(1000):
            stem = rng.choice(_DOMAIN_STEMS[vertical])
            number = rng.randrange(10_000)
            domain = f"{stem}{number}{suffix}"
            if domain not in seen:
                return domain
        raise RuntimeError("domain namespace exhausted")

    def __len__(self) -> int:
        return len(self.publishers)

    def sample_pageview_publisher(self, rng: random.Random,
                                  interests: tuple[str, ...] = (),
                                  country: str = "",
                                  attempts: int = 4) -> Publisher:
        """Draw the publisher for one pageview.

        Popularity-weighted Zipf sampling, biased toward the visitor's
        interests and country: a few redraws keep the stream realistic
        (people mostly read what they care about, in their locale) without
        making interests deterministic.  A draw is kept when it carries an
        interest (if any) and focuses on *country* or GLOBAL (if given).
        """
        masks = self._local_masks.get(country)
        if masks is None:
            masks = self._local_masks[country] = [
                mask if not country
                or publisher.country_focus in (country, "GLOBAL") else 0
                for publisher, mask in zip(self.publishers, self._topic_masks)]
        wanted = self._interest_bits.get(interests)
        if wanted is None:
            wanted = -1 if not interests else 0
            for topic in interests:
                wanted |= self._topic_bits.get(topic, 0)
            self._interest_bits[interests] = wanted
        cumulative = self._popularity.cumulative
        draw = rng.random
        index = bisect_left(cumulative, draw())
        for _ in range(attempts):
            if masks[index] & wanted:
                break
            index = bisect_left(cumulative, draw())
        return self.publishers[index]

    def matching_publishers(self, topic: str) -> list[Publisher]:
        """All publishers carrying *topic* (used by bots to find targets)."""
        return [publisher for publisher in self.publishers
                if topic in publisher.topics]
