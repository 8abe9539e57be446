"""Tests for repro.geo.providers."""

import random

import pytest

from repro.geo.providers import ProviderKind, ProviderRegistry


@pytest.fixture
def registry():
    return ProviderRegistry(random.Random(7))


class TestRegistryGeneration:
    def test_creates_access_isps_per_country(self, registry):
        for country in ("ES", "RU", "US"):
            providers = registry.access_providers(country)
            assert len(providers) == 4
            assert all(p.country == country for p in providers)

    def test_last_access_provider_is_mobile(self, registry):
        providers = registry.access_providers("ES")
        assert providers[-1].kind is ProviderKind.MOBILE
        assert all(p.kind is ProviderKind.ISP for p in providers[:-1])

    def test_datacenter_population_size(self, registry):
        assert len(registry.datacenter_providers(include_vpn=True)) == 100

    def test_vpn_fraction_carved_from_datacenters(self, registry):
        vpns = [p for p in registry.providers if p.kind is ProviderKind.VPN]
        assert len(vpns) == 6
        assert all(not p.advertises_hosting for p in vpns)

    def test_plain_datacenters_advertise_hosting(self, registry):
        for provider in registry.datacenter_providers(include_vpn=False):
            assert provider.advertises_hosting

    def test_no_overlapping_blocks(self, registry):
        blocks = [block for provider in registry.providers
                  for block in provider.blocks]
        # Sorted by network start, each block must end before the next begins.
        ordered = sorted(blocks, key=lambda b: b.network)
        for current, following in zip(ordered, ordered[1:]):
            assert current.last < following.first

    def test_unique_names(self, registry):
        names = [provider.name for provider in registry.providers]
        assert len(names) == len(set(names))

    def test_access_space_distinct_from_datacenter_space(self, registry):
        for provider in registry.access_providers("ES"):
            for block in provider.blocks:
                assert block.network < (128 << 24)
        for provider in registry.datacenter_providers():
            for block in provider.blocks:
                assert block.network >= (128 << 24)

    def test_rejects_zero_providers(self):
        with pytest.raises(ValueError):
            ProviderRegistry(random.Random(0), isps_per_country=0)

    def test_rejects_bad_vpn_fraction(self):
        with pytest.raises(ValueError):
            ProviderRegistry(random.Random(0), vpn_fraction=1.0)


class TestProvider:
    def test_random_ip_falls_in_own_space(self, registry):
        rng = random.Random(3)
        for provider in registry.providers[:10]:
            ip = provider.random_ip(rng)
            assert any(block.contains(ip) for block in provider.blocks)
