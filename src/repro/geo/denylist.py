"""Botlab-style deny-hosting IP list.

The second stage of the detection cascade: a published list of CIDR blocks
belonging to major data-center providers.  Real-world lists are incomplete
— they cover the *top* providers — so the builder here takes a coverage
fraction; addresses in uncovered data-center space must be caught by the
third (manual verification) stage instead, exactly as in the paper.
"""

from __future__ import annotations

from typing import Iterable

from repro.geo.providers import ProviderRegistry
from repro.net.cidrtrie import CidrTrie
from repro.net.ipv4 import Cidr, parse_cidr


class DenyList:
    """Set of CIDR blocks with membership lookup."""

    def __init__(self, blocks: Iterable[Cidr | str] = ()) -> None:
        self._trie: CidrTrie[bool] = CidrTrie()
        self._count = 0
        for block in blocks:
            self.add(block)

    def add(self, block: Cidr | str) -> None:
        """Add one CIDR block to the list."""
        cidr = parse_cidr(block) if isinstance(block, str) else block
        self._trie.insert(cidr, True)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def __contains__(self, ip: str) -> bool:
        return self._trie.covers(ip)

    def covers(self, ip: str) -> bool:
        """True if *ip* falls inside any listed block."""
        return self._trie.covers(ip)

    @classmethod
    def from_registry(cls, registry: ProviderRegistry,
                      coverage: float = 0.7) -> "DenyList":
        """Compile a deny list covering the first *coverage* fraction of
        data-center providers (VPN space is intentionally excluded — the
        industry guidance exempts it)."""
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be within [0, 1]")
        providers = registry.datacenter_providers(include_vpn=False)
        covered = providers[: int(round(len(providers) * coverage))]
        deny = cls()
        for provider in covered:
            for block in provider.blocks:
                deny.add(block)
        return deny
