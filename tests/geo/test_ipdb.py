"""Tests for repro.geo.ipdb."""

import random

import pytest

from repro.geo.ipdb import GeoIpDatabase
from repro.geo.providers import ProviderRegistry


@pytest.fixture
def world():
    registry = ProviderRegistry(random.Random(11))
    return registry, GeoIpDatabase(registry)


class TestGeoIpDatabase:
    def test_every_provider_block_resolves_to_owner(self, world):
        registry, db = world
        rng = random.Random(1)
        for provider in registry.providers:
            ip = provider.random_ip(rng)
            record = db.lookup(ip)
            assert record is not None
            assert record.provider == provider.name
            assert record.country == provider.country
            assert record.kind is provider.kind

    def test_unallocated_space_resolves_to_none(self, world):
        _, db = world
        assert db.lookup("1.1.1.1") is None
        assert db.country_of("1.1.1.1") is None
        assert db.provider_of("1.1.1.1") is None

    def test_country_of_access_ip(self, world):
        registry, db = world
        ip = registry.access_providers("RU")[0].random_ip(random.Random(2))
        assert db.country_of(ip) == "RU"

    def test_size_counts_prefixes(self, world):
        registry, db = world
        total_blocks = sum(len(provider.blocks)
                           for provider in registry.providers)
        assert len(db) == total_blocks

    def test_malformed_ip_raises(self, world):
        _, db = world
        with pytest.raises(ValueError):
            db.lookup("not-an-ip")
