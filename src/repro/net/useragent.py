"""User-Agent string generation and parsing.

The beacon reports the raw User-Agent of the device that rendered the
impression; the audit then (a) uses it as half of the user identifier
(user = IP ⊕ User-Agent) and (b) classifies device/browser families.
Generation produces realistic 2016-era UA strings; parsing inverts them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

_BROWSER_WEIGHTS = [
    ("chrome", 0.52),
    ("firefox", 0.17),
    ("safari", 0.14),
    ("msie", 0.09),
    ("opera", 0.04),
    ("headless", 0.04),
]

_OS_BY_DEVICE = {
    "desktop": ["Windows NT 10.0; Win64; x64", "Windows NT 6.1; WOW64",
                "Macintosh; Intel Mac OS X 10_11_4", "X11; Linux x86_64"],
    "mobile": ["iPhone; CPU iPhone OS 9_3 like Mac OS X",
               "Linux; Android 6.0.1; Nexus 5X Build/MMB29P",
               "Linux; Android 5.1; SM-G361F Build/LMY48B"],
    "server": ["X11; Linux x86_64", "Windows NT 6.3; Win64; x64"],
}

_CHROME_VERSIONS = ["48.0.2564.116", "49.0.2623.87", "50.0.2661.75"]
_FIREFOX_VERSIONS = ["44.0", "45.0", "46.0"]
_SAFARI_VERSIONS = ["601.5.17", "601.6.17"]
_OPERA_VERSIONS = ["35.0.2066.68", "36.0.2130.32"]


@dataclass(frozen=True)
class UserAgent:
    """Parsed User-Agent facts the audit cares about."""

    raw: str
    browser: str
    device: str


def generate_user_agent(rng: random.Random, device: str = "desktop",
                        browser: str = "") -> str:
    """Produce a realistic UA string for the given device class.

    *browser* forces a family; otherwise one is drawn from 2016-ish market
    shares.  ``device`` must be ``desktop``, ``mobile`` or ``server``.
    """
    if device not in _OS_BY_DEVICE:
        raise ValueError(f"unknown device class: {device!r}")
    if not browser:
        families = [name for name, _ in _BROWSER_WEIGHTS]
        weights = [weight for _, weight in _BROWSER_WEIGHTS]
        browser = rng.choices(families, weights=weights, k=1)[0]
    os_token = rng.choice(_OS_BY_DEVICE[device])
    if browser == "chrome":
        version = rng.choice(_CHROME_VERSIONS)
        return (f"Mozilla/5.0 ({os_token}) AppleWebKit/537.36 "
                f"(KHTML, like Gecko) Chrome/{version} Safari/537.36")
    if browser == "firefox":
        version = rng.choice(_FIREFOX_VERSIONS)
        return f"Mozilla/5.0 ({os_token}; rv:{version}) Gecko/20100101 Firefox/{version}"
    if browser == "safari":
        version = rng.choice(_SAFARI_VERSIONS)
        return (f"Mozilla/5.0 ({os_token}) AppleWebKit/{version} "
                f"(KHTML, like Gecko) Version/9.1 Safari/{version}")
    if browser == "msie":
        return f"Mozilla/5.0 ({os_token}; Trident/7.0; rv:11.0) like Gecko"
    if browser == "opera":
        version = rng.choice(_OPERA_VERSIONS)
        chrome = rng.choice(_CHROME_VERSIONS)
        return (f"Mozilla/5.0 ({os_token}) AppleWebKit/537.36 "
                f"(KHTML, like Gecko) Chrome/{chrome} Safari/537.36 OPR/{version}")
    if browser == "headless":
        kind = rng.choice(["PhantomJS/2.1.1", "HeadlessChrome/49.0.2623.87"])
        return f"Mozilla/5.0 ({os_token}) AppleWebKit/537.36 (KHTML, like Gecko) {kind}"
    raise ValueError(f"unknown browser family: {browser!r}")


def parse_user_agent_uncached(raw: str) -> UserAgent:
    """Reference single-shot classification (see :func:`parse_user_agent`)."""
    if not raw or not raw.strip():
        return UserAgent(raw=raw, browser="unknown", device="desktop")
    lowered = raw.lower()
    if "phantomjs" in lowered or "headlesschrome" in lowered:
        browser = "headless"
    elif "opr/" in lowered or "opera" in lowered:
        browser = "opera"
    elif "firefox/" in lowered:
        browser = "firefox"
    elif "chrome/" in lowered:
        browser = "chrome"
    elif "safari/" in lowered:
        browser = "safari"
    elif "trident" in lowered or "msie" in lowered:
        browser = "msie"
    else:
        browser = "unknown"
    if "iphone" in lowered or "android" in lowered or "mobile" in lowered:
        device = "mobile"
    else:
        device = "desktop"
    return UserAgent(raw=raw, browser=browser, device=device)


_parse_user_agent_cached = functools.lru_cache(maxsize=8192)(
    parse_user_agent_uncached)


def parse_user_agent(raw: str) -> UserAgent:
    """Classify a UA string into (browser family, device class).

    Best-effort, mirroring how the paper's MySQL post-processing would bin
    raw strings; unknown strings classify as ('unknown', 'desktop').  An
    empty or whitespace-only UA — a real dataset always has a few — is
    just the least informative unknown string, not an error: the audit
    must keep the record (the UA is half of the user identity), so it
    bins like any other unrecognised string.

    Parsing runs per impression on both the beacon and the audit sides
    against a small generated UA vocabulary, so results are memoised in a
    bounded LRU cache; :class:`UserAgent` is frozen, so the shared
    instances are safe to hand out.
    """
    return _parse_user_agent_cached(raw)


#: Cache introspection pass-throughs (tests assert on hit counts).
parse_user_agent.cache_info = _parse_user_agent_cached.cache_info
parse_user_agent.cache_clear = _parse_user_agent_cached.cache_clear
