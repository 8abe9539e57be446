"""Tests for repro.beacon.client — beacon-to-collector delivery."""

import random

import pytest

from repro.adnetwork.matching import MatchDecision, MatchReason
from repro.adnetwork.server import DeliveredImpression
from repro.adnetwork.viewability import Exposure
from repro.beacon.client import BeaconClient, DeliveryStatus
from repro.beacon.events import BeaconObservation, InteractionEvent, InteractionKind
from repro.collector.server import CollectorServer
from repro.collector.store import ImpressionStore
from repro.net.transport import NetworkConditions, SimulatedNetwork
from repro.util.simclock import SimClock
from tests.adnetwork.conftest import START, make_pageview, make_publisher


def make_impression(campaign, exposure_seconds=6.0, render_delay=0.5,
                    timestamp=START + 100.0):
    pageview = make_pageview(make_publisher(), timestamp=timestamp)
    return DeliveredImpression(
        impression_id=1,
        campaign=campaign,
        pageview=pageview,
        exposure=Exposure(render_delay, exposure_seconds, True),
        match=MatchDecision(True, MatchReason.CONTEXTUAL),
        clearing_cpm=0.05,
    )


def make_observation(impression, interactions=()):
    return BeaconObservation(
        campaign_id=impression.campaign.campaign_id,
        creative_id=impression.campaign.creative_id,
        page_url=impression.pageview.url,
        user_agent=impression.pageview.user_agent,
        interactions=tuple(interactions),
        exposure_seconds=impression.exposure.exposure_seconds,
    )


@pytest.fixture
def pipeline():
    clock = SimClock(START)
    store = ImpressionStore()
    network = SimulatedNetwork(clock, random.Random(71),
                               NetworkConditions(connect_failure_rate=0.0,
                                                 mid_stream_failure_rate=0.0))
    collector = CollectorServer(store)
    collector.attach(network)
    client = BeaconClient(network, collector, clock, random.Random(72))
    return client, collector, store, network, clock


class TestDelivery:
    def test_successful_delivery_commits_record(self, pipeline,
                                                football_campaign):
        client, collector, store, _, _ = pipeline
        impression = make_impression(football_campaign)
        observation = make_observation(impression)
        delivery = client.deliver(impression, observation)
        assert delivery.status is DeliveryStatus.DELIVERED
        assert len(store) == 1
        record = next(iter(store))
        assert record.campaign_id == "Football-010"
        assert record.url == impression.pageview.url
        assert record.ip == impression.pageview.ip
        assert not record.truncated

    def test_exposure_measured_as_connection_duration(self, pipeline,
                                                      football_campaign):
        client, _, store, _, _ = pipeline
        impression = make_impression(football_campaign, exposure_seconds=6.0)
        client.deliver(impression, make_observation(impression))
        record = next(iter(store))
        # Duration = exposure minus the connect latency (<= 0.1 s).
        assert 5.8 <= record.exposure_seconds <= 6.0

    def test_timestamp_is_server_connection_time(self, pipeline,
                                                 football_campaign):
        client, _, store, _, _ = pipeline
        impression = make_impression(football_campaign,
                                     timestamp=START + 500.0,
                                     render_delay=1.0)
        client.deliver(impression, make_observation(impression))
        record = next(iter(store))
        assert START + 501.0 <= record.timestamp <= START + 501.2

    def test_interactions_counted_at_server(self, pipeline,
                                            football_campaign):
        client, _, store, _, _ = pipeline
        impression = make_impression(football_campaign, exposure_seconds=9.0)
        events = [InteractionEvent(InteractionKind.MOUSE_MOVE, 1.0),
                  InteractionEvent(InteractionKind.MOUSE_MOVE, 2.5),
                  InteractionEvent(InteractionKind.CLICK, 4.0)]
        client.deliver(impression, make_observation(impression, events))
        record = next(iter(store))
        assert record.mouse_moves == 2
        assert record.clicks == 1

    def test_connect_failure_loses_impression(self, football_campaign):
        clock = SimClock(START)
        store = ImpressionStore()
        network = SimulatedNetwork(clock, random.Random(3),
                                   NetworkConditions(connect_failure_rate=1.0))
        collector = CollectorServer(store)
        collector.attach(network)
        client = BeaconClient(network, collector, clock, random.Random(4))
        impression = make_impression(football_campaign)
        delivery = client.deliver(impression, make_observation(impression))
        assert delivery.status is DeliveryStatus.CONNECT_FAILED
        assert len(store) == 0

    def test_mid_stream_drop_truncates_exposure(self, football_campaign):
        clock = SimClock(START)
        store = ImpressionStore()
        network = SimulatedNetwork(
            clock, random.Random(5),
            NetworkConditions(connect_failure_rate=0.0,
                              mid_stream_failure_rate=1.0))
        collector = CollectorServer(store)
        collector.attach(network)
        client = BeaconClient(network, collector, clock, random.Random(6))
        impression = make_impression(football_campaign, exposure_seconds=20.0)
        events = [InteractionEvent(InteractionKind.MOUSE_MOVE, 2.0)]
        delivery = client.deliver(impression,
                                  make_observation(impression, events))
        assert delivery.status is DeliveryStatus.DROPPED_MID_STREAM
        record = next(iter(store))
        assert record.truncated
        assert record.exposure_seconds < 20.0

    def test_overlapping_impressions_keep_independent_durations(
            self, pipeline, football_campaign):
        client, _, store, _, _ = pipeline
        # Second impression renders *before* the first one unloads.
        first = make_impression(football_campaign, exposure_seconds=50.0,
                                timestamp=START + 100.0)
        second = make_impression(football_campaign, exposure_seconds=5.0,
                                 timestamp=START + 110.0)
        client.deliver(first, make_observation(first))
        client.deliver(second, make_observation(second))
        durations = sorted(record.exposure_seconds for record in store)
        assert durations[0] == pytest.approx(5.0, abs=0.2)
        assert durations[1] == pytest.approx(50.0, abs=0.2)

    def test_server_skew_shifts_timestamps(self, football_campaign):
        clock = SimClock(START, server_skew=10.0)
        store = ImpressionStore()
        network = SimulatedNetwork(clock, random.Random(7),
                                   NetworkConditions(connect_failure_rate=0.0,
                                                     mid_stream_failure_rate=0.0))
        collector = CollectorServer(store)
        collector.attach(network)
        client = BeaconClient(network, collector, clock, random.Random(8))
        impression = make_impression(football_campaign,
                                     timestamp=START + 100.0,
                                     render_delay=0.0)
        client.deliver(impression, make_observation(impression))
        record = next(iter(store))
        assert record.timestamp >= START + 110.0
