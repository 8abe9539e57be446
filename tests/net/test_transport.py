"""Tests for repro.net.transport — the simulated connection layer."""

import random

import pytest

from repro.net.transport import (
    ConnectionClosed,
    Endpoint,
    NetworkConditions,
    SimulatedNetwork,
)
from repro.util.simclock import SimClock

CLIENT = Endpoint(ip="2.0.0.1", port=50000)
SERVER = Endpoint(ip="198.51.100.10", port=443)


def make_network(connect_failure_rate=0.0, mid_stream_failure_rate=0.0,
                 seed=0, skew=0.0):
    clock = SimClock(1000.0, server_skew=skew)
    conditions = NetworkConditions(
        connect_failure_rate=connect_failure_rate,
        mid_stream_failure_rate=mid_stream_failure_rate)
    return SimulatedNetwork(clock, random.Random(seed), conditions), clock


class TestNetworkConditions:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            NetworkConditions(connect_failure_rate=1.5)
        with pytest.raises(ValueError):
            NetworkConditions(mid_stream_failure_rate=-0.1)
        with pytest.raises(ValueError):
            NetworkConditions(base_latency=-1.0)


class TestConnect:
    def test_successful_connect_returns_connection(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER)
        assert connection is not None
        assert connection.client == CLIENT
        assert connection.is_open

    def test_open_time_includes_latency_and_skew(self):
        network, clock = make_network(skew=2.0)
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        assert connection.opened_at_server >= 1002.0
        assert connection.opened_at_server <= 1002.0 + 0.2

    def test_connect_failure_returns_none_and_counts(self):
        network, _ = make_network(connect_failure_rate=1.0)
        assert network.connect(CLIENT, SERVER) is None
        assert network.failed_connects == 1

    def test_accept_callback_fires(self):
        network, _ = make_network()
        accepted = []
        network.on_accept(accepted.append)
        connection = network.connect(CLIENT, SERVER)
        assert accepted == [connection]

    def test_connection_ids_are_unique(self):
        network, _ = make_network()
        ids = {network.connect(CLIENT, SERVER).connection_id for _ in range(10)}
        assert len(ids) == 10


class TestDataTransfer:
    def test_client_bytes_reach_server_inbox(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        now = connection.opened_at_server
        connection.client_send(b"hello", now)
        connection.client_send(b" world", now + 1)
        assert connection.drain_server_inbox() == b"hello world"
        assert connection.drain_server_inbox() == b""

    def test_server_bytes_reach_client_inbox(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.server_send(b"101", connection.opened_at_server)
        assert connection.drain_client_inbox() == b"101"

    def test_send_before_establishment_rejected(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        with pytest.raises(ValueError):
            connection.client_send(b"x", connection.opened_at_server - 1.0)

    def test_send_after_close_rejected(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 5.0)
        with pytest.raises(ConnectionClosed):
            connection.client_send(b"x", connection.opened_at_server + 6.0)


class TestCloseAndDuration:
    def test_duration_is_server_side_close_minus_open(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 7.25)
        assert connection.duration == pytest.approx(7.25)

    def test_duration_unavailable_while_open(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        with pytest.raises(ConnectionClosed):
            _ = connection.duration

    def test_double_close_rejected(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 1.0)
        with pytest.raises(ConnectionClosed):
            connection.close(connection.opened_at_server + 2.0)

    def test_close_before_open_rejected(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        with pytest.raises(ValueError):
            connection.close(connection.opened_at_server - 1.0)

    def test_close_records_initiator(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 1.0, initiator="network")
        assert connection.close_initiator == "network"


class TestFailurePaths:
    """The failure surface the beacon/collector error model rests on."""

    def test_server_send_after_close_rejected(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 5.0)
        with pytest.raises(ConnectionClosed):
            connection.server_send(b"x", connection.opened_at_server + 6.0)

    def test_close_after_close_raises_connection_closed(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 1.0)
        with pytest.raises(ConnectionClosed):
            connection.close(connection.opened_at_server + 2.0,
                             initiator="network")
        # A rejected close must not overwrite the recorded initiator.
        assert connection.close_initiator == "client"

    @pytest.mark.parametrize("initiator", ["client", "network"])
    def test_initiator_recorded_for_both_sides(self, initiator):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 1.0,
                         initiator=initiator)
        assert connection.close_initiator == initiator

    def test_default_initiator_is_client(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        assert connection.close_initiator == ""
        connection.close(connection.opened_at_server + 1.0)
        assert connection.close_initiator == "client"

    def test_server_side_instants_round_trip_into_exposure_time(self):
        # The paper's measurement trick: exposure time IS the
        # server-observed connection duration, so the open/close instants
        # (including skew and latency) must reproduce it exactly.
        network, _ = make_network(skew=3.5)
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        exposure = 42.25
        close_at = connection.opened_at_server + exposure
        connection.close(close_at, initiator="client")
        assert connection.closed_at_server == close_at
        assert connection.duration == pytest.approx(exposure)
        assert connection.duration == pytest.approx(
            connection.closed_at_server - connection.opened_at_server)


class TestMidStreamDrop:
    def test_never_drops_at_zero_rate(self):
        network, _ = make_network(mid_stream_failure_rate=0.0)
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        for offset in range(1, 50):
            assert not network.maybe_drop_mid_stream(
                connection, connection.opened_at_server + offset)
        assert connection.is_open

    def test_always_drops_at_full_rate(self):
        network, _ = make_network(mid_stream_failure_rate=1.0)
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        assert network.maybe_drop_mid_stream(
            connection, connection.opened_at_server + 1.0)
        assert not connection.is_open
        assert connection.close_initiator == "network"

    def test_drop_on_closed_connection_is_noop(self):
        network, _ = make_network(mid_stream_failure_rate=1.0)
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        connection.close(connection.opened_at_server + 1.0)
        assert not network.maybe_drop_mid_stream(
            connection, connection.opened_at_server + 2.0)


class TestClosedErrorMessages:
    """Closed-connection errors are self-describing: who closed, when."""

    def test_send_error_names_initiator_and_server_instant(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        close_at = connection.opened_at_server + 5.0
        connection.close(close_at, initiator="network")
        with pytest.raises(ConnectionClosed) as excinfo:
            connection.client_send(b"x", close_at + 1.0)
        message = str(excinfo.value)
        assert f"connection {connection.connection_id}" in message
        assert "closed by network" in message
        assert f"at server instant {close_at:.3f}" in message

    def test_server_send_error_carries_same_detail(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        close_at = connection.opened_at_server + 2.0
        connection.close(close_at)
        with pytest.raises(ConnectionClosed, match="closed by client"):
            connection.server_send(b"x", close_at + 1.0)

    def test_double_close_error_names_original_initiator(self):
        network, _ = make_network()
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        close_at = connection.opened_at_server + 1.0
        connection.close(close_at, initiator="network")
        with pytest.raises(ConnectionClosed) as excinfo:
            connection.close(close_at + 1.0, initiator="client")
        message = str(excinfo.value)
        assert "cannot close already-closed" in message
        assert "closed by network" in message
        assert f"{close_at:.3f}" in message


class TestFaultInjection:
    """Injected connect/stream faults layered over the baseline model."""

    @staticmethod
    def make_faulty_network(*specs, seed=0):
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import FaultPlan, FaultSpec
        plan = FaultPlan(name="test",
                         specs=tuple(FaultSpec(*spec) for spec in specs))
        network, clock = make_network(seed=seed)
        network.faults = FaultInjector(plan, random.Random(seed + 1))
        return network, clock

    def test_refused_connect_sets_failure_reason(self):
        network, _ = self.make_faulty_network(("connect", "refused", 1.0))
        assert network.connect(CLIENT, SERVER, at_time=1000.0) is None
        assert network.last_connect_failure == "fault_refused"
        assert network.failed_connects == 1

    def test_timeout_connect_sets_failure_reason(self):
        network, _ = self.make_faulty_network(
            ("connect", "timeout", 1.0, 0.75))
        assert network.connect(CLIENT, SERVER, at_time=1000.0) is None
        assert network.last_connect_failure == "fault_timeout"

    def test_success_clears_failure_reason(self):
        network, _ = self.make_faulty_network(("stream", "disconnect", 1.0))
        network.last_connect_failure = "fault_refused"
        assert network.connect(CLIENT, SERVER, at_time=1000.0) is not None
        assert network.last_connect_failure == ""

    def test_backpressure_shifts_server_open_instant(self):
        delay = 2.5
        network, _ = self.make_faulty_network(
            ("collector", "backpressure", 1.0, delay))
        baseline, _ = make_network(seed=0)
        shifted = network.connect(CLIENT, SERVER, at_time=1000.0)
        plain = baseline.connect(CLIENT, SERVER, at_time=1000.0)
        assert shifted.opened_at_server == pytest.approx(
            plain.opened_at_server + delay)

    def test_injected_disconnect_closes_mid_stream(self):
        network, _ = self.make_faulty_network(("stream", "disconnect", 1.0))
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        assert network.maybe_drop_mid_stream(
            connection, connection.opened_at_server + 1.0)
        assert connection.close_initiator == "network"

    def test_faulty_connection_carries_frame_point(self):
        network, _ = self.make_faulty_network(("frame", "truncate", 0.5))
        connection = network.connect(CLIENT, SERVER, at_time=1000.0)
        assert connection.fault_point is not None
        assert connection.fault_point.stage == "frame"
        baseline, _ = make_network()
        assert baseline.connect(CLIENT, SERVER).fault_point is None

    def test_inactive_injector_preserves_baseline_draws(self):
        # Wiring the null injector must not consume RNG or change timing.
        network, _ = make_network(seed=42)
        plain = network.connect(CLIENT, SERVER, at_time=1000.0)
        network2, _ = make_network(seed=42)
        from repro.faults.inject import NULL_INJECTOR
        network2.faults = NULL_INJECTOR
        wired = network2.connect(CLIENT, SERVER, at_time=1000.0)
        assert wired.opened_at_server == plain.opened_at_server
        assert wired.latency == plain.latency
