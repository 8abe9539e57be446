"""Tests for repro.web.bots."""

import random

import pytest

from repro.web.bots import Bot, BotConfig, BotFleet


@pytest.fixture
def fleet(registry):
    return BotFleet(random.Random(31), registry, countries=("ES",),
                    config=BotConfig(bots_per_fleet=20, fleet_count=3))


class TestBotConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BotConfig(bots_per_fleet=0)
        with pytest.raises(ValueError):
            BotConfig(daily_pageviews_min=10, daily_pageviews_max=5)
        with pytest.raises(ValueError):
            BotConfig(dwell_min=0)
        with pytest.raises(ValueError):
            BotConfig(target_profile=())
        with pytest.raises(ValueError):
            BotConfig(aggressive_fraction=1.5)
        with pytest.raises(ValueError):
            BotConfig(aggressive_multiplier=0.5)
        with pytest.raises(ValueError):
            BotConfig(fleet_focus_size=-1)


class TestBotFleet:
    def test_fleet_size(self, fleet):
        assert len(fleet) == 60

    def test_all_bots_in_datacenter_space(self, fleet, registry):
        datacenter_blocks = [block
                             for provider in registry.datacenter_providers()
                             for block in provider.blocks]
        for bot in fleet.bots:
            assert any(block.contains(bot.ip) for block in datacenter_blocks)

    def test_bots_never_use_vpn_space(self, fleet, registry):
        vpn_blocks = [block for provider in registry.datacenter_providers()
                      if not provider.advertises_hosting
                      for block in provider.blocks]
        for bot in fleet.bots:
            assert not any(block.contains(bot.ip) for block in vpn_blocks)

    def test_bots_claim_requested_country(self, fleet):
        assert all(bot.claimed_country == "ES" for bot in fleet.bots)

    def test_bots_prefer_local_datacenters(self, registry):
        fleet = BotFleet(random.Random(37), registry, countries=("ES",),
                         config=BotConfig(bots_per_fleet=10, fleet_count=5))
        from repro.geo.ipdb import GeoIpDatabase
        db = GeoIpDatabase(registry)
        local = sum(db.country_of(bot.ip) == "ES" for bot in fleet.bots)
        # ES data centers exist in the registry, so fleets should sit there.
        assert local == len(fleet.bots)

    def test_fleet_shares_provider_but_ips_vary(self, fleet):
        assert len({bot.ip for bot in fleet.bots}) > len(fleet) * 0.8

    def test_bot_ids_unique(self, fleet):
        ids = [bot.bot_id for bot in fleet.bots]
        assert len(ids) == len(set(ids))

    def test_fleet_ids_group_bots(self, fleet):
        fleet_ids = {bot.fleet_id for bot in fleet.bots}
        assert len(fleet_ids) == 3

    def test_verticals_rotate_within_fleet(self, fleet):
        verticals = {bot.target_topics[0] for bot in fleet.bots}
        assert len(verticals) >= 2

    def test_aggressive_bots_run_hotter(self, registry):
        config = BotConfig(bots_per_fleet=200, fleet_count=1,
                           daily_pageviews_min=10, daily_pageviews_max=20,
                           aggressive_fraction=0.1, aggressive_multiplier=10.0)
        fleet = BotFleet(random.Random(41), registry, config=config)
        hot = [bot for bot in fleet.bots if bot.daily_pageviews > 20]
        assert hot
        assert all(bot.daily_pageviews >= 100 for bot in hot)

    def test_focus_size_propagates(self, registry):
        config = BotConfig(bots_per_fleet=3, fleet_count=1,
                           fleet_focus_size=7)
        fleet = BotFleet(random.Random(43), registry, config=config)
        assert all(bot.focus_size == 7 for bot in fleet.bots)

    def test_bot_validation(self):
        with pytest.raises(ValueError):
            Bot(bot_id=1, fleet_id=1, ip="128.0.0.1", user_agent="ua",
                claimed_country="ES", target_topics=("sports",),
                daily_pageviews=0, dwell_seconds=1.0)
