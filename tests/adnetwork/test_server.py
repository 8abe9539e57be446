"""Tests for repro.adnetwork.server — the delivery engine."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.inventory import ExternalDemand, ExternalDemandConfig
from repro.adnetwork.matching import NO_MATCH, MatchEngine, MatchReason
from repro.adnetwork.server import AdServer, NetworkPolicy
from repro.geo.ipdb import GeoIpDatabase
from repro.geo.providers import ProviderRegistry
from tests.adnetwork.conftest import END, START, make_pageview, make_publisher


@pytest.fixture(scope="module")
def registry():
    return ProviderRegistry(random.Random(61))


@pytest.fixture(scope="module")
def ipdb(registry):
    return GeoIpDatabase(registry)


def quiet_external():
    return ExternalDemand(ExternalDemandConfig(
        competition_by_country=(("ES", 0.0),), default_competition=0.0,
        price_level_by_country=(("ES", 1.0),), default_price_level=1.0))


def football_campaign(**overrides):
    defaults = dict(campaign_id="Football-010", keywords=("Football",),
                    cpm_eur=0.10, target_countries=("ES",),
                    start_unix=START, end_unix=END, daily_budget_eur=100.0)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def make_server(lexicon, ipdb, campaigns=None, policy=None):
    campaigns = campaigns if campaigns is not None else [football_campaign()]
    return AdServer(campaigns, MatchEngine(lexicon), quiet_external(), ipdb,
                    policy=policy)


def es_pageview(registry, **overrides):
    ip = registry.access_providers("ES")[0].blocks[0].nth(77)
    defaults = dict(ip=ip, country="ES")
    defaults.update(overrides)
    return make_pageview(**defaults)


class TestServe:
    def test_matched_pageview_yields_impression(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        impression = server.serve(es_pageview(registry), random.Random(0))
        assert impression is not None
        assert impression.campaign.campaign_id == "Football-010"
        assert impression.match.reason is MatchReason.CONTEXTUAL
        assert impression.pageview.publisher.domain == "futbol9.es"

    def test_inactive_campaign_never_serves(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        pageview = es_pageview(registry, timestamp=START - 1000)
        assert server.serve(pageview, random.Random(0)) is None

    def test_geo_mismatch_never_serves(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        ru_ip = registry.access_providers("RU")[0].blocks[0].nth(5)
        pageview = es_pageview(registry, ip=ru_ip, country="RU")
        assert server.serve(pageview, random.Random(0)) is None

    def test_geo_resolution_prefers_ip_database(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        # The visitor claims ES but the IP belongs to a Russian ISP: the
        # network's own geo lookup wins, so no Spain-targeted ad serves.
        ru_ip = registry.access_providers("RU")[0].blocks[0].nth(9)
        pageview = es_pageview(registry, ip=ru_ip, country="ES")
        assert server.serve(pageview, random.Random(0)) is None

    def test_unknown_ip_falls_back_to_claimed_country(self, lexicon, ipdb,
                                                      registry):
        server = make_server(lexicon, ipdb)
        pageview = es_pageview(registry, ip="1.2.3.4", country="ES")
        assert server.serve(pageview, random.Random(0)) is not None

    def test_impressions_charge_billing(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        impression = server.serve(es_pageview(registry), random.Random(0))
        assert impression.price_eur > 0
        assert server.pacer.total_spend["Football-010"] \
            == impression.price_eur
        count = server.metrics.snapshot().counter_value
        assert count("billing.charges") == 1
        assert count("billing.charged_eur") == impression.price_eur

    def test_budget_exhaustion_stops_delivery(self, lexicon, ipdb, registry):
        campaign = football_campaign(daily_budget_eur=0.0002)
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        rng = random.Random(1)
        late = START + 0.99 * 86_400
        for index in range(300):
            server.serve(es_pageview(registry, timestamp=late + index),
                         rng)
        # floor is 0.01 CPM -> 1e-5 per impression -> at most ~20-ish wins.
        assert len(server.impressions) <= 30

    def test_run_consumes_stream(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        views = [es_pageview(registry, timestamp=START + i * 50)
                 for i in range(20)]
        delivered = server.run(iter(views), random.Random(2))
        assert delivered == server.impressions


class TestIvtPrefilter:
    def test_full_prefilter_blocks_all_bots(self, lexicon, ipdb, registry):
        policy = NetworkPolicy(ivt_prefilter_rate=1.0)
        server = make_server(lexicon, ipdb, policy=policy)
        pageview = es_pageview(registry, is_bot=True)
        assert server.serve(pageview, random.Random(0)) is None
        assert server.metrics.snapshot().counter_value(
            "adserver.prefiltered") == 1

    def test_zero_prefilter_serves_bots(self, lexicon, ipdb, registry):
        policy = NetworkPolicy(ivt_prefilter_rate=0.0)
        server = make_server(lexicon, ipdb, policy=policy)
        pageview = es_pageview(registry, is_bot=True)
        assert server.serve(pageview, random.Random(0)) is not None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            NetworkPolicy(ivt_prefilter_rate=1.5)
        with pytest.raises(ValueError):
            NetworkPolicy(default_frequency_cap=0)
        with pytest.raises(ValueError):
            NetworkPolicy(broad_base_rate=0.9, broad_max_rate=0.1)
        with pytest.raises(ValueError):
            NetworkPolicy(matched_supply_ref=0.0)


class TestFrequencyCap:
    def test_no_default_cap_allows_unbounded_repetition(self, lexicon, ipdb,
                                                        registry):
        server = make_server(lexicon, ipdb)
        rng = random.Random(3)
        for index in range(120):
            server.serve(es_pageview(registry, timestamp=START + index * 30),
                         rng)
        # Same IP+UA got far more than any sensible cap — the paper's point.
        assert len(server.impressions) > 100

    def test_advertiser_cap_enforced_per_user(self, lexicon, ipdb, registry):
        campaign = football_campaign(frequency_cap=3)
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        rng = random.Random(4)
        for index in range(50):
            server.serve(es_pageview(registry, timestamp=START + index * 30),
                         rng)
        assert len(server.impressions) == 3

    def test_cap_distinguishes_user_agents(self, lexicon, ipdb, registry):
        campaign = football_campaign(frequency_cap=2)
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        rng = random.Random(5)
        for index in range(30):
            ua = "UA-A" if index % 2 else "UA-B"
            server.serve(es_pageview(registry, timestamp=START + index * 30,
                                     user_agent=ua), rng)
        assert len(server.impressions) == 4   # 2 per (IP, UA) identity

    def test_network_default_cap_policy(self, lexicon, ipdb, registry):
        policy = NetworkPolicy(default_frequency_cap=5)
        server = make_server(lexicon, ipdb, policy=policy)
        rng = random.Random(6)
        for index in range(60):
            server.serve(es_pageview(registry, timestamp=START + index * 30),
                         rng)
        assert len(server.impressions) == 5


class TestBroadExpansion:
    def test_scarce_supply_raises_broad_rate(self, lexicon, ipdb, registry):
        campaign = football_campaign(campaign_id="Research",
                                     keywords=("Research",))
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        rng = random.Random(7)
        off_topic = make_publisher(domain="recetas1.es", topics=("recipes",),
                                   keywords=("food",))
        # Feed many unmatched pageviews: supply estimate drops, spend stays
        # zero, so the expansion should climb well above the base rate.
        for index in range(400):
            server.serve(es_pageview(registry, publisher=off_topic,
                                     timestamp=START + 40_000 + index), rng)
        rate = server.broad_rate(campaign, START + 45_000)
        assert rate > 0.5

    def test_plentiful_supply_keeps_broad_at_base(self, lexicon, ipdb,
                                                  registry):
        server = make_server(lexicon, ipdb)
        rng = random.Random(8)
        for index in range(400):
            server.serve(es_pageview(registry, timestamp=START + 40_000 + index),
                         rng)
        campaign = server.campaigns[0]
        rate = server.broad_rate(campaign, START + 45_000)
        assert rate <= server.policy.broad_base_rate + 0.05

    def test_supply_estimate_reflects_traffic(self, lexicon, ipdb, registry):
        server = make_server(lexicon, ipdb)
        rng = random.Random(9)
        off_topic = make_publisher(domain="recetas2.es", topics=("recipes",),
                                   keywords=("food",))
        for index in range(300):
            publisher = off_topic if index % 3 else None
            server.serve(es_pageview(registry, publisher=publisher,
                                     timestamp=START + index), rng)
        estimate = server.matched_supply("Football-010")
        assert 0.2 < estimate < 0.5   # one in three pageviews matched


class TestPlacementExclusions:
    def test_excluded_domain_never_served(self, lexicon, ipdb, registry):
        campaign = football_campaign(
            excluded_domains=frozenset({"futbol9.es"}))
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        rng = random.Random(10)
        for index in range(50):
            server.serve(es_pageview(registry, timestamp=START + index * 30),
                         rng)
        assert server.impressions == []

    def test_other_domains_unaffected(self, lexicon, ipdb, registry):
        campaign = football_campaign(
            excluded_domains=frozenset({"someother.es"}))
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        assert server.serve(es_pageview(registry), random.Random(0)) is not None

    def test_anonymous_exclusion(self, lexicon, ipdb, registry):
        campaign = football_campaign(exclude_anonymous=True)
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        anonymous_pub = make_publisher(domain="anon.es", is_anonymous=True)
        pageview = es_pageview(registry, publisher=anonymous_pub)
        assert server.serve(pageview, random.Random(0)) is None


class _RecordingEngine(MatchEngine):
    """Records the campaigns ``serve`` considers; never matches or draws."""

    def __init__(self, lexicon):
        super().__init__(lexicon)
        self.considered = []

    def decide(self, campaign, publisher, interests, rng, broad_rate=None):
        self.considered.append(campaign.campaign_id)
        return NO_MATCH


def per_campaign_filter(campaigns, now, country, publisher):
    """The checks ``serve`` made on every campaign before the flight table."""
    return [campaign.campaign_id for campaign in campaigns
            if campaign.start_unix <= now < campaign.end_unix
            and campaign.targets_country(country)
            and not campaign.excludes_publisher(publisher.domain,
                                                publisher.is_anonymous)]


HOUR = 3600.0
COUNTRIES = ("ES", "RU", "US", "GLOBAL")

#: (start hour, length in hours, countries, exclude domain, exclude
#: anonymous): small grids make touching, overlapping, repeated and
#: nested flights common.
flight_specs = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 4),
              st.lists(st.sampled_from(COUNTRIES), min_size=1, max_size=3),
              st.booleans(), st.booleans()),
    min_size=1, max_size=6)


class TestFlightTable:
    @given(specs=flight_specs, anonymous=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_considers_what_the_per_campaign_filter_admits(
            self, lexicon, ipdb, specs, anonymous):
        campaigns = [
            football_campaign(
                campaign_id=f"c{index}",
                start_unix=START + start * HOUR,
                end_unix=START + (start + length) * HOUR,
                target_countries=tuple(countries),
                excluded_domains=frozenset({"Futbol9.ES"} if excluded
                                           else ()),
                exclude_anonymous=exclude_anonymous)
            for index, (start, length, countries, excluded,
                        exclude_anonymous) in enumerate(specs)]
        engine = _RecordingEngine(lexicon)
        server = AdServer(campaigns, engine, quiet_external(), ipdb)
        publisher = make_publisher(domain="FUTBOL9.es", is_anonymous=anonymous)
        bounds = sorted({c.start_unix for c in campaigns}
                        | {c.end_unix for c in campaigns})
        moments = ([bounds[0] - 1.0, bounds[-1] + 1.0]
                   + bounds + [bound + HOUR / 2 for bound in bounds])
        for now in moments:
            for country in COUNTRIES + ("FR", ""):
                engine.considered.clear()
                # 1.2.3.4 is unknown to the IP database: the claimed
                # country is used.
                pageview = make_pageview(publisher=publisher, timestamp=now,
                                         ip="1.2.3.4", country=country)
                assert server.serve(pageview, random.Random(0)) is None
                assert engine.considered == per_campaign_filter(
                    campaigns, now, country, publisher), (now, country)


def clamped_broad_rate(server, campaign, now):
    """``broad_rate`` as written before its unreachable clamps went."""
    policy = server.policy
    elapsed_days = max(0.0, (now - campaign.start_unix) / 86_400.0)
    expected = campaign.daily_budget_eur * elapsed_days
    if expected <= 0.0:
        return policy.broad_base_rate
    spent = server.pacer.total_spend.get(campaign.campaign_id, 0.0)
    pressure = min(1.0, max(0.0, (expected - spent) / expected))
    supply = server.matched_supply(campaign.campaign_id)
    scarcity = min(1.0, max(0.0, 1.0 - supply / policy.matched_supply_ref))
    return (policy.broad_base_rate
            + pressure * scarcity
            * (policy.broad_max_rate - policy.broad_base_rate))


class TestBroadRateFormula:
    @given(offset=st.floats(-2 * 86_400.0, 3 * 86_400.0),
           budget=st.floats(0.001, 500.0),
           spent_share=st.floats(0.0, 3.0),
           examined=st.integers(0, 400),
           matched_share=st.floats(0.0, 1.0))
    @example(offset=-3600.0, budget=50.0, spent_share=0.0, examined=300,
             matched_share=0.01)                       # before the flight
    @example(offset=0.0, budget=50.0, spent_share=0.0, examined=300,
             matched_share=0.01)                       # at the start
    @example(offset=43_200.0, budget=50.0, spent_share=2.0, examined=300,
             matched_share=0.01)                       # spend above expected
    @example(offset=43_200.0, budget=50.0, spent_share=0.0, examined=300,
             matched_share=0.5)                        # supply above the ref
    @example(offset=43_200.0, budget=50.0, spent_share=0.5, examined=10,
             matched_share=0.0)                        # too few samples
    @settings(max_examples=200, deadline=None)
    def test_equals_clamped_formula(self, lexicon, ipdb, offset, budget,
                                    spent_share, examined, matched_share):
        campaign = football_campaign(daily_budget_eur=budget)
        server = make_server(lexicon, ipdb, campaigns=[campaign])
        expected = budget * max(0.0, offset) / 86_400.0
        server.pacer.total_spend[campaign.campaign_id] = spent_share * expected
        server._supply_examined[campaign.campaign_id] = examined
        server._supply_matched[campaign.campaign_id] = round(
            matched_share * examined)
        now = START + offset
        assert server.broad_rate(campaign, now) \
            == clamped_broad_rate(server, campaign, now)
