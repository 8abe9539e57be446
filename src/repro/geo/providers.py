"""Synthetic registry of network providers and their address allocations.

The real study resolves IPs against MaxMind's ISP database and a list of
the top-100 data-center providers.  We synthesise an equivalent world:
residential/mobile ISPs per country and a global population of data-center
(cloud/hosting) providers, each owning disjoint CIDR blocks carved from a
deterministic allocation plan.

Allocation plan (all deterministic given the registry parameters):

* access ISPs draw /14 blocks from 2.0.0.0 upward,
* data-center providers draw /15 blocks from 128.0.0.0 upward,

so no two providers ever overlap and tests can reason about the layout.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.net.ipv4 import Cidr

_ACCESS_BASE = 2 << 24          # 2.0.0.0
_DATACENTER_BASE = 128 << 24    # 128.0.0.0
_ACCESS_PREFIX = 14
_DATACENTER_PREFIX = 15


class ProviderKind(enum.Enum):
    """Coarse provider taxonomy the audit distinguishes."""

    ISP = "isp"
    MOBILE = "mobile"
    DATACENTER = "datacenter"
    VPN = "vpn"   # data-center space legitimately serving end users


@dataclass(frozen=True)
class Provider:
    """One provider and its address space.

    ``advertises_hosting`` models what the paper's manual verification step
    finds on the provider's website; it is true for data-center providers
    and false for VPN services (the exception §4.2 calls out).
    """

    name: str
    kind: ProviderKind
    country: str
    blocks: tuple[Cidr, ...]
    advertises_hosting: bool = False

    def random_ip(self, rng: random.Random) -> str:
        """A uniformly random address from this provider's space."""
        block = rng.choice(self.blocks)
        return block.nth(rng.randrange(block.size))


_COUNTRY_ISP_NAMES = {
    "ES": ["Telefonica de Espana", "Orange Espana", "Vodafone ES", "Jazztel",
           "Euskaltel", "R Cable"],
    "RU": ["Rostelecom", "MTS PJSC", "VimpelCom", "ER-Telecom", "TTK"],
    "US": ["Comcast Cable", "AT&T Internet", "Verizon Fios", "Charter",
           "CenturyLink", "Cox Communications"],
}

_DATACENTER_NAME_STEMS = [
    "NimbusCompute", "StratoHost", "IronRack", "BlueFjord", "QuantumColo",
    "PacketBarn", "VoltServers", "DeepGrid", "ApexNode", "TerraCloud",
]


class ProviderRegistry:
    """Generates and indexes the synthetic provider world.

    Parameters
    ----------
    rng:
        Source of randomness (names/shuffling only; allocations are
        positional and therefore stable under insertion order).
    countries:
        ISO codes to create access ISPs for.
    datacenter_count:
        Number of data-center providers (the paper's list covers the top
        100 worldwide).
    vpn_fraction:
        Fraction of data-center providers that are actually VPN services —
        hosted space the industry does *not* count as invalid traffic.
    """

    def __init__(self, rng: random.Random,
                 countries: tuple[str, ...] = ("ES", "RU", "US"),
                 isps_per_country: int = 4,
                 blocks_per_isp: int = 2,
                 datacenter_count: int = 100,
                 blocks_per_datacenter: int = 2,
                 vpn_fraction: float = 0.06) -> None:
        if isps_per_country < 1 or datacenter_count < 1:
            raise ValueError("must create at least one provider of each class")
        if not 0.0 <= vpn_fraction < 1.0:
            raise ValueError("vpn_fraction must be within [0, 1)")
        self.providers: list[Provider] = []
        self._names: set[str] = set()
        next_access = _ACCESS_BASE
        for country in countries:
            names = list(_COUNTRY_ISP_NAMES.get(country, []))
            while len(names) < isps_per_country:
                names.append(f"{country} Access Networks {len(names) + 1}")
            for index in range(isps_per_country):
                blocks = []
                for _ in range(blocks_per_isp):
                    blocks.append(Cidr(next_access, _ACCESS_PREFIX))
                    next_access += 1 << (32 - _ACCESS_PREFIX)
                kind = ProviderKind.MOBILE if index == isps_per_country - 1 \
                    else ProviderKind.ISP
                self._add(Provider(
                    name=names[index],
                    kind=kind,
                    country=country,
                    blocks=tuple(blocks),
                ))
        next_dc = _DATACENTER_BASE
        vpn_count = int(round(datacenter_count * vpn_fraction))
        for index in range(datacenter_count):
            stem = _DATACENTER_NAME_STEMS[index % len(_DATACENTER_NAME_STEMS)]
            name = f"{stem} {index // len(_DATACENTER_NAME_STEMS) + 1}"
            blocks = []
            for _ in range(blocks_per_datacenter):
                blocks.append(Cidr(next_dc, _DATACENTER_PREFIX))
                next_dc += 1 << (32 - _DATACENTER_PREFIX)
            is_vpn = index >= datacenter_count - vpn_count
            country = rng.choice(("US", "DE", "NL", "RU", "ES", "FR"))
            self._add(Provider(
                name=f"{name} VPN" if is_vpn else name,
                kind=ProviderKind.VPN if is_vpn else ProviderKind.DATACENTER,
                country=country,
                blocks=tuple(blocks),
                advertises_hosting=not is_vpn,
            ))

    def _add(self, provider: Provider) -> None:
        if provider.name in self._names:
            raise ValueError(f"duplicate provider name: {provider.name}")
        self.providers.append(provider)
        self._names.add(provider.name)

    def __len__(self) -> int:
        return len(self.providers)

    def access_providers(self, country: str) -> list[Provider]:
        """Residential + mobile ISPs registered for *country*."""
        return [provider for provider in self.providers
                if provider.country == country
                and provider.kind in (ProviderKind.ISP, ProviderKind.MOBILE)]

    def datacenter_providers(self, include_vpn: bool = True) -> list[Provider]:
        """All providers whose space is hosted."""
        kinds = {ProviderKind.DATACENTER, ProviderKind.VPN} if include_vpn \
            else {ProviderKind.DATACENTER}
        return [provider for provider in self.providers if provider.kind in kinds]
