"""MaxMind-style IP intelligence database.

Maps any IPv4 address to its owning provider, country, and coarse kind via
longest-prefix-match over the registry's allocations.  This is the first
stage of the paper's data-center detection cascade ("First, we used MaxMind
to map each IP address in our dataset to its associated provider").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.geo.providers import Provider, ProviderKind, ProviderRegistry
from repro.net.cidrtrie import CidrTrie

#: Bound on the per-database answer memo; a full-scale world sees a few
#: hundred thousand distinct addresses, so the table is cleared (not
#: LRU-evicted — lookups are uniform enough that simple works) on
#: overflow rather than growing without limit.
_MAX_CACHED_LOOKUPS = 1 << 17


@dataclass(frozen=True)
class IpRecord:
    """The database's answer for one address."""

    ip: str
    provider: str
    country: str
    kind: ProviderKind


class GeoIpDatabase:
    """Longest-prefix-match database over provider allocations.

    >>> import random
    >>> registry = ProviderRegistry(random.Random(7))
    >>> db = GeoIpDatabase(registry)
    >>> record = db.lookup(registry.providers[0].blocks[0].nth(5))
    >>> record.provider == registry.providers[0].name
    True
    """

    def __init__(self, registry: ProviderRegistry) -> None:
        self.registry = registry
        self._trie: CidrTrie[Provider] = CidrTrie()
        for provider in registry.providers:
            for block in provider.blocks:
                self._trie.insert(block, provider)
        # ip → (provider, record) memo.  The database is immutable after
        # construction and lookups repeat heavily (one per pageview for
        # geo targeting, again per record during enrichment), so answers
        # are cached whole.
        self._answer_cache: dict[
            str, tuple[Optional[Provider], Optional[IpRecord]]] = {}

    def __len__(self) -> int:
        return len(self._trie)

    def _answer(self, ip: str) -> tuple[Optional[Provider], Optional[IpRecord]]:
        try:
            return self._answer_cache[ip]
        except KeyError:
            pass
        if len(self._answer_cache) >= _MAX_CACHED_LOOKUPS:
            self._answer_cache.clear()
        provider = self._trie.lookup(ip)
        record = None if provider is None else IpRecord(
            ip=ip, provider=provider.name,
            country=provider.country, kind=provider.kind)
        self._answer_cache[ip] = (provider, record)
        return provider, record

    def lookup(self, ip: str) -> Optional[IpRecord]:
        """Resolve *ip*; None when the address is unallocated space."""
        return self._answer(ip)[1]

    def provider_of(self, ip: str) -> Optional[Provider]:
        """The full provider object owning *ip*, if any."""
        return self._answer(ip)[0]

    def country_of(self, ip: str) -> Optional[str]:
        """Country code for *ip* (geo-targeting uses this)."""
        record = self.lookup(ip)
        return record.country if record else None
