"""Tests for the beacon client's retry/backoff loop under fault plans."""

import dataclasses
import random

import pytest

from repro.beacon.client import BeaconClient, DeliveryStatus
from repro.collector.server import CollectorServer
from repro.collector.store import ImpressionStore
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec, RetryPolicy
from repro.net.transport import NetworkConditions, SimulatedNetwork
from repro.util.simclock import SimClock
from tests.adnetwork.conftest import START
from tests.beacon.test_client import make_impression, make_observation


def make_pipeline(plan, fault_seed=1, client_seed=72):
    clock = SimClock(START)
    store = ImpressionStore()
    injector = FaultInjector(plan, random.Random(fault_seed))
    network = SimulatedNetwork(
        clock, random.Random(71),
        NetworkConditions(connect_failure_rate=0.0,
                          mid_stream_failure_rate=0.0),
        injector=injector)
    collector = CollectorServer(store, injector=injector)
    collector.attach(network)
    client = BeaconClient(network, collector, clock,
                          random.Random(client_seed), injector=injector)
    return client, collector, store


def make_distinct_impression(campaign, impression_id, **kwargs):
    # Each impression needs its own id: the delivery nonce is derived
    # from it, and a shared id would make the collector dedup every
    # delivery after the first.
    impression = make_impression(campaign, **kwargs)
    return dataclasses.replace(impression, impression_id=impression_id)


def refused_plan(max_attempts, probability=1.0, jitter=0.0):
    return FaultPlan(
        name="test",
        specs=(FaultSpec("connect", "refused", probability),),
        retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.5,
                          multiplier=2.0, max_delay=30.0, jitter=jitter))


class TestRetrySchedule:
    def test_exhausted_retries_follow_exact_backoff_schedule(
            self, football_campaign):
        # Every connect refused, jitter 0: the attempt instants are pure
        # arithmetic — render, +base, +base*multiplier — and the client
        # gives up after max_attempts.
        client, _, store = make_pipeline(refused_plan(max_attempts=3))
        impression = make_impression(football_campaign)
        delivery = client.deliver(impression, make_observation(impression))
        assert delivery.status is DeliveryStatus.CONNECT_FAILED
        assert delivery.attempts == 3
        assert not delivery.committed
        assert len(store) == 0
        first = delivery.attempt_instants[0]
        assert delivery.attempt_instants == (
            first, first + 0.5, first + 0.5 + 1.0)

    def test_timeout_fault_charges_configured_wait(self, football_campaign):
        plan = FaultPlan(
            name="test",
            specs=(FaultSpec("connect", "timeout", 1.0, param=0.75),),
            retry=RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0))
        client, _, _ = make_pipeline(plan)
        impression = make_impression(football_campaign)
        delivery = client.deliver(impression, make_observation(impression))
        assert delivery.attempts == 2
        gap = delivery.attempt_instants[1] - delivery.attempt_instants[0]
        assert gap == pytest.approx(0.75 + 0.5)

    def test_same_seed_reproduces_identical_schedule(self, football_campaign):
        plan = refused_plan(max_attempts=4, probability=0.5, jitter=0.25)
        outcomes = []
        for _ in range(2):
            client, _, _ = make_pipeline(plan, fault_seed=9)
            deliveries = []
            for impression_id in range(1, 6):
                impression = make_distinct_impression(
                    football_campaign, impression_id,
                    timestamp=START + 100.0 * impression_id)
                deliveries.append(client.deliver(
                    impression, make_observation(impression)))
            outcomes.append([(d.status, d.attempts, d.attempt_instants)
                             for d in deliveries])
        assert outcomes[0] == outcomes[1]

    def test_retry_recovers_flaky_connect(self, football_campaign):
        # With p=0.5 some first attempts fail; bounded retry must convert
        # at least one such failure into a committed delivery.
        plan = refused_plan(max_attempts=3, probability=0.5)
        client, _, store = make_pipeline(plan, fault_seed=2)
        recovered = False
        for impression_id in range(1, 21):
            impression = make_distinct_impression(
                football_campaign, impression_id,
                timestamp=START + 100.0 * impression_id)
            delivery = client.deliver(impression,
                                      make_observation(impression))
            if delivery.attempts > 1 and delivery.committed:
                recovered = True
        assert recovered
        assert len(store) > 0

    def test_handshake_failure_is_not_retried(self, football_campaign):
        # An unattached collector never answers the upgrade: that is a
        # deterministic rejection, so retrying is pointless and the
        # client must not burn attempts on it.
        plan = refused_plan(max_attempts=4, probability=0.0)
        clock = SimClock(START)
        injector = FaultInjector(plan, random.Random(1))
        network = SimulatedNetwork(
            clock, random.Random(71),
            NetworkConditions(connect_failure_rate=0.0,
                              mid_stream_failure_rate=0.0),
            injector=injector)
        collector = CollectorServer(ImpressionStore(), injector=injector)
        client = BeaconClient(network, collector, clock, random.Random(72),
                              injector=injector)
        impression = make_impression(football_campaign)
        delivery = client.deliver(impression, make_observation(impression))
        assert delivery.status is DeliveryStatus.HANDSHAKE_FAILED
        assert delivery.attempts == 1


class TestDuplicateDelivery:
    def test_duplicate_redelivery_dedups_at_collector(self,
                                                      football_campaign):
        plan = FaultPlan(
            name="test",
            specs=(FaultSpec("delivery", "duplicate", 1.0),),
            retry=RetryPolicy(max_attempts=1, base_delay=0.5, jitter=0.0))
        client, collector, store = make_pipeline(plan)
        impression = make_impression(football_campaign)
        delivery = client.deliver(impression, make_observation(impression))
        assert delivery.status is DeliveryStatus.DELIVERED
        assert delivery.committed
        assert delivery.attempts == 2       # original + one re-delivery
        assert delivery.duplicates == 1     # rejected by the nonce
        assert len(store) == 1
        assert collector.metrics.snapshot().counter_value(
            "collector.duplicates") == 1


class TestNonce:
    def test_nonce_is_stable_per_impression(self, football_campaign):
        plan = refused_plan(max_attempts=2, probability=0.0)
        client_a, _, _ = make_pipeline(plan, fault_seed=1)
        client_b, _, _ = make_pipeline(plan, fault_seed=2)
        impression = make_impression(football_campaign)
        assert client_a._nonce(impression) == client_b._nonce(impression)
        other = make_distinct_impression(football_campaign, 2)
        assert client_a._nonce(impression) != client_a._nonce(other)

    def test_no_nonce_on_the_wire_without_faults(self, football_campaign):
        clock = SimClock(START)
        store = ImpressionStore()
        network = SimulatedNetwork(
            clock, random.Random(71),
            NetworkConditions(connect_failure_rate=0.0,
                              mid_stream_failure_rate=0.0))
        collector = CollectorServer(store)
        collector.attach(network)
        client = BeaconClient(network, collector, clock, random.Random(72))
        impression = make_impression(football_campaign)
        client.deliver(impression, make_observation(impression))
        assert len(store) == 1
        # The collector never saw (or tracked) a nonce.
        assert collector._seen_nonces == {}
