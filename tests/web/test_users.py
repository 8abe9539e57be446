"""Tests for repro.web.users."""

import random

import pytest

from repro.web.users import Device, PopulationConfig, UserPopulation


class TestPopulationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PopulationConfig(users_per_country=0)
        with pytest.raises(ValueError):
            PopulationConfig(nat_fraction=2.0)
        with pytest.raises(ValueError):
            PopulationConfig(nat_group_size=1)
        with pytest.raises(ValueError):
            PopulationConfig(pareto_alpha=1.0)
        with pytest.raises(ValueError):
            PopulationConfig(interests_min=3, interests_max=2)


class TestDevice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Device(user_id=1, country="ES", ip="2.0.0.1", user_agents=(),
                   interests=(), daily_pageviews=10.0, engagement=1.0)
        with pytest.raises(ValueError):
            Device(user_id=1, country="ES", ip="2.0.0.1", user_agents=("ua",),
                   interests=(), daily_pageviews=0.0, engagement=1.0)

    def test_pick_user_agent_prefers_primary(self):
        device = Device(user_id=1, country="ES", ip="2.0.0.1",
                        user_agents=("primary", "secondary"),
                        interests=(), daily_pageviews=10.0, engagement=1.0)
        rng = random.Random(0)
        picks = [device.pick_user_agent(rng) for _ in range(500)]
        assert picks.count("primary") > picks.count("secondary") * 2


class TestPopulation:
    def test_population_size_per_country(self, population):
        for country in ("ES", "RU", "US"):
            assert len(population.in_country(country)) == 150
        assert len(population) == 450

    def test_user_ids_unique(self, population):
        ids = [device.user_id for device in population.devices]
        assert len(ids) == len(set(ids))

    def test_ips_come_from_country_providers(self, population, registry):
        for country in ("ES", "RU", "US"):
            providers = registry.access_providers(country)
            blocks = [block for provider in providers
                      for block in provider.blocks]
            for device in population.in_country(country)[:25]:
                assert any(block.contains(device.ip) for block in blocks)

    def test_nat_devices_share_ips(self, population):
        nat_devices = [d for d in population.devices if d.behind_nat]
        assert nat_devices, "expected some NAT users"
        by_ip = {}
        for device in nat_devices:
            by_ip.setdefault(device.ip, []).append(device)
        assert any(len(group) >= 2 for group in by_ip.values())

    def test_activity_is_heavy_tailed(self, population):
        daily = sorted(d.daily_pageviews for d in population.devices)
        median = daily[len(daily) // 2]
        assert daily[-1] > median * 5

    def test_everyone_has_interests(self, population, lexicon):
        for device in population.devices:
            assert device.interests
            for interest in device.interests:
                assert interest in lexicon.tree

    def test_sports_interests_more_common_than_science(self, population, lexicon):
        tree = lexicon.tree
        sports_nodes = set(tree.subtree("sports"))
        science_nodes = set(tree.subtree("science"))
        sports_users = sum(
            1 for d in population.devices
            if sports_nodes.intersection(d.interests))
        science_users = sum(
            1 for d in population.devices
            if science_nodes.intersection(d.interests))
        assert sports_users > science_users * 2

    def test_missing_country_providers_rejected(self, registry, lexicon):
        with pytest.raises(ValueError):
            UserPopulation(random.Random(0), registry, lexicon.tree,
                           countries=("DE",))
