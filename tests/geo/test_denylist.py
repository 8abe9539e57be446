"""Tests for repro.geo.denylist."""

import random

import pytest

from repro.geo.denylist import DenyList
from repro.geo.providers import ProviderRegistry


class TestDenyList:
    def test_empty_list_covers_nothing(self):
        assert not DenyList().covers("128.0.0.1")
        assert len(DenyList()) == 0

    def test_add_and_membership(self):
        deny = DenyList(["128.0.0.0/15"])
        assert deny.covers("128.1.255.255")
        assert "128.0.0.1" in deny
        assert not deny.covers("128.2.0.0")

    def test_from_registry_partial_coverage(self):
        registry = ProviderRegistry(random.Random(5))
        deny = DenyList.from_registry(registry, coverage=0.7)
        datacenters = registry.datacenter_providers(include_vpn=False)
        covered = datacenters[: int(round(len(datacenters) * 0.7))]
        uncovered = datacenters[int(round(len(datacenters) * 0.7)):]
        rng = random.Random(6)
        assert all(deny.covers(p.random_ip(rng)) for p in covered)
        assert all(not deny.covers(p.random_ip(rng)) for p in uncovered)

    def test_from_registry_excludes_vpn_space(self):
        registry = ProviderRegistry(random.Random(5))
        deny = DenyList.from_registry(registry, coverage=1.0)
        rng = random.Random(7)
        vpns = [p for p in registry.datacenter_providers(include_vpn=True)
                if not p.advertises_hosting]
        assert vpns
        assert all(not deny.covers(p.random_ip(rng)) for p in vpns)

    def test_from_registry_never_covers_access_space(self):
        registry = ProviderRegistry(random.Random(5))
        deny = DenyList.from_registry(registry, coverage=1.0)
        rng = random.Random(8)
        for country in ("ES", "RU", "US"):
            for provider in registry.access_providers(country):
                assert not deny.covers(provider.random_ip(rng))

    def test_rejects_bad_coverage(self):
        registry = ProviderRegistry(random.Random(5))
        with pytest.raises(ValueError):
            DenyList.from_registry(registry, coverage=1.5)
