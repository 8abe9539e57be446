"""Quickstart: audit one display campaign end to end.

Builds a miniature web ecosystem, runs a single keyword-targeted campaign
through the GDN-like ad server, collects impressions with the injected
beacon over (simulated) WebSockets, and prints the audit next to what the
vendor's console would have claimed.

Run with:  python examples/quickstart.py
"""

from repro.adnetwork import (
    AdServer,
    CampaignSpec,
    MatchEngine,
    VendorReporter,
)
from repro.adnetwork.inventory import ExternalDemand
from repro.audit import AuditDataset, full_audit
from repro.beacon import BeaconScript
from repro.beacon.client import BeaconClient
from repro.collector import CollectorServer, Enricher, ImpressionStore
from repro.geo import DataCenterResolver, DenyList, GeoIpDatabase, ProviderRegistry
from repro.net.transport import SimulatedNetwork
from repro.taxonomy import build_default_lexicon
from repro.util import RngFactory, SimClock
from repro.web import (
    BotConfig,
    BotFleet,
    BrowsingSimulator,
    PopulationConfig,
    PublisherUniverse,
    UniverseConfig,
    UserPopulation,
)


def main() -> None:
    rngs = RngFactory(seed=7)
    lexicon = build_default_lexicon()

    # --- the world ----------------------------------------------------- #
    universe = PublisherUniverse(rngs.stream("publishers"),
                                 UniverseConfig(publisher_count=1_500),
                                 lexicon=lexicon)
    registry = ProviderRegistry(rngs.stream("providers"))
    population = UserPopulation(rngs.stream("users"), registry, lexicon.tree,
                                config=PopulationConfig(users_per_country=400))
    bots = BotFleet(rngs.stream("bots"), registry, countries=("ES",),
                    config=BotConfig(bots_per_fleet=5, fleet_count=1,
                                     daily_pageviews_min=20.0,
                                     daily_pageviews_max=60.0,
                                     fleet_focus_size=10))

    # --- the campaign (what the advertiser configures) ------------------ #
    start, end = CampaignSpec.flight(2016, 4, 2, 4, 3)
    campaign = CampaignSpec(
        campaign_id="Football-010",
        keywords=("Football",),
        cpm_eur=0.10,
        target_countries=("ES",),
        start_unix=start,
        end_unix=end,
        daily_budget_eur=0.30,
    )

    # --- vendor side ----------------------------------------------------#
    ipdb = GeoIpDatabase(registry)
    ad_server = AdServer([campaign], MatchEngine(lexicon), ExternalDemand(),
                         ipdb)

    # --- our auditing instrumentation ----------------------------------- #
    clock = SimClock(start)
    network = SimulatedNetwork(clock, rngs.stream("network"))
    store = ImpressionStore()
    collector = CollectorServer(store)
    collector.attach(network)
    beacon_client = BeaconClient(network, collector, clock,
                                 rngs.stream("beacon"))
    script = BeaconScript()

    # --- run the flight -------------------------------------------------- #
    browsing = BrowsingSimulator(universe, lexicon.tree)
    serve_rng, script_rng = rngs.stream("serve"), rngs.stream("script")
    for pageview in browsing.stream(population.in_country("ES"), bots.bots,
                                    start, end, rngs.stream("browse")):
        impression = ad_server.serve(pageview, serve_rng)
        if impression is None:
            continue
        observation = script.observe(impression, script_rng)
        if observation is None:
            continue                     # blocked script: impression lost
        beacon_client.deliver(impression, observation)

    # --- vendor report + enrichment + audit ------------------------------ #
    ad_server.billing.apply_fraud_refunds(ad_server.impressions,
                                          rngs.stream("refunds"))
    report = VendorReporter().report(
        campaign.campaign_id, ad_server.impressions,
        charged_eur=ad_server.pacer.total_spend[campaign.campaign_id],
        refunded_eur=ad_server.billing.refunded.get(campaign.campaign_id, 0))
    resolver = DataCenterResolver(ipdb, DenyList.from_registry(registry))
    Enricher(ipdb, resolver, universe.ranking).enrich_store(store)

    dataset = AuditDataset(
        store=store,
        campaigns={campaign.campaign_id: campaign},
        vendor_reports={campaign.campaign_id: report},
        directory={publisher.domain: publisher
                   for publisher in universe.publishers},
        lexicon=lexicon,
        ranking=universe.ranking,
    )

    print(f"Delivered (vendor ground truth): {len(ad_server.impressions)}")
    print(f"Logged by our beacon:            {len(store)}")
    print(f"Vendor-reported total:           {report.total_impressions}")
    print(f"Vendor contextual claim:         {report.contextual}")
    print()
    print(full_audit(dataset).render())


if __name__ == "__main__":
    main()
