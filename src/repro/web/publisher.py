"""Publisher model.

A publisher is a website that sells display inventory.  The attributes here
are exactly what the rest of the pipeline consumes:

* ``domain`` — what the beacon's URL report reveals to the auditor;
* ``global_rank`` — its Alexa-style popularity rank (Figure 2);
* ``topics``/``keywords`` — its thematic content (context audit, Table 2);
* ``is_anonymous`` — sells through the exchange anonymously, so the vendor
  report shows ``anonymous.google`` instead of the domain (Figure 1);
* ``blocks_scripts`` — sandboxes third-party JavaScript, so the beacon never
  fires there (the paper's 16.5 % unlogged publishers);
* ``engagement`` — how long visitors typically keep pages open, the main
  driver of exposure time / viewability (Table 3);
* ``floor_cpm``/``premium_demand`` — auction economics (Figure 2's
  CPM-vs-popularity result).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Publisher:
    """One website in the synthetic universe."""

    domain: str
    global_rank: int
    country_focus: str
    topics: tuple[str, ...]
    keywords: tuple[str, ...]
    is_anonymous: bool = False
    blocks_scripts: bool = False
    #: SafeFrame-style transparent iframes expose geometry to the creative,
    #: so the injected script CAN measure pixel visibility there — lifting
    #: the Same-Origin limitation of paper §3.1 on a subset of inventory.
    safeframe: bool = False
    unsafe: bool = False
    engagement: float = 1.0
    floor_cpm: float = 0.01
    premium_demand: float = 0.0
    ad_slots: int = 1

    def __post_init__(self) -> None:
        if not self.domain or "." not in self.domain:
            raise ValueError(f"implausible domain: {self.domain!r}")
        if self.global_rank < 1:
            raise ValueError("global_rank must be >= 1")
        if not self.topics:
            raise ValueError(f"publisher {self.domain} has no topics")
        if self.engagement <= 0:
            raise ValueError("engagement must be positive")
        if self.floor_cpm < 0:
            raise ValueError("floor_cpm must be non-negative")
        if not 0.0 <= self.premium_demand <= 1.0:
            raise ValueError("premium_demand must be within [0, 1]")
        if self.ad_slots < 1:
            raise ValueError("ad_slots must be >= 1")

    def url_for_page(self, page_id: int) -> str:
        """A concrete page URL (the beacon reports full URLs, the audit
        extracts the domain back out of them)."""
        if page_id < 0:
            raise ValueError("page_id must be non-negative")
        section = self.topics[page_id % len(self.topics)]
        return f"http://{self.domain}/{section}/article-{page_id}.html"

    def matches_keyword(self, keyword: str) -> bool:
        """Literal keyword-list match (the context audit's criterion 1).

        Both sides are lower-cased with whitespace runs collapsed.
        """
        return (_normalise_keyword(keyword)
                in map(_normalise_keyword, self.keywords))


@lru_cache(maxsize=4096)   # keywords come from a small, fixed vocabulary
def _normalise_keyword(text: str) -> str:
    return " ".join(text.lower().split())


def domain_of_url(url: str) -> str:
    """Extract the publisher domain from a beacon-reported URL.

    Accepts bare domains too (vendor reports list placements as domains).
    """
    if not url:
        raise ValueError("empty URL")
    rest = url
    if "://" in rest:
        rest = rest.split("://", 1)[1]
    domain = rest.split("/", 1)[0].split(":", 1)[0].strip().lower()
    if not domain:
        raise ValueError(f"cannot extract domain from {url!r}")
    return domain
