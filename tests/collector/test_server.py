"""Tests for repro.collector.server — protocol handling on the server side."""

import random

import pytest

from repro.collector.server import CollectorServer
from repro.collector.store import ImpressionStore
from repro.net.transport import Endpoint, NetworkConditions, SimulatedNetwork
from repro.net.websocket import (
    Frame,
    Opcode,
    encode_frame,
    make_client_key,
    make_handshake_request,
)
from repro.util.simclock import SimClock

CLIENT = Endpoint(ip="2.0.0.9", port=50000)


@pytest.fixture
def setup():
    clock = SimClock(1000.0)
    store = ImpressionStore()
    network = SimulatedNetwork(clock, random.Random(81),
                               NetworkConditions(connect_failure_rate=0.0,
                                                 mid_stream_failure_rate=0.0))
    collector = CollectorServer(store)
    collector.attach(network)
    return collector, store, network


def open_connection(collector, network):
    connection = network.connect(CLIENT, collector.endpoint, at_time=1000.0)
    now = connection.opened_at_server
    key = make_client_key(random.Random(5))
    connection.client_send(make_handshake_request("h", "/beacon", key), now)
    collector.process(connection)
    return connection, now


def send_text(collector, connection, text, now):
    frame = encode_frame(Frame(Opcode.TEXT, text.encode("utf-8"), masked=True),
                         rng=random.Random(9))
    connection.client_send(frame, now)
    collector.process(connection)


def counted(collector, name):
    """One of the collector's counters, read from its metrics snapshot."""
    return collector.metrics.snapshot().counter_value(f"collector.{name}")


HELLO = ("HELLO|v=1|cid=Research-010|cr=Research-010-creative"
         "|url=http%3A%2F%2Fdiario1.es%2Fn%2Fa-1.html|ua=Mozilla%2F5.0")


class TestHandshake:
    def test_valid_handshake_gets_101(self, setup):
        collector, _, network = setup
        connection, _ = open_connection(collector, network)
        response = connection.drain_client_inbox()
        assert b"101 Switching Protocols" in response

    def test_garbage_handshake_counted(self, setup):
        collector, store, network = setup
        connection = network.connect(CLIENT, collector.endpoint, at_time=1000.0)
        now = connection.opened_at_server
        connection.client_send(b"POST /x HTTP/1.1\r\nHost: h\r\n\r\n", now)
        collector.process(connection)
        assert counted(collector, "handshake_failures") == 1
        connection.close(now + 1)
        assert collector.finalize(connection) is None
        assert len(store) == 0

    def test_split_handshake_reassembled(self, setup):
        collector, _, network = setup
        connection = network.connect(CLIENT, collector.endpoint, at_time=1000.0)
        now = connection.opened_at_server
        key = make_client_key(random.Random(6))
        request = make_handshake_request("h", "/beacon", key)
        connection.client_send(request[:20], now)
        collector.process(connection)
        connection.client_send(request[20:], now)
        collector.process(connection)
        assert b"101" in connection.drain_client_inbox()


class TestFrameHandling:
    def test_hello_then_close_commits_record(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        close = encode_frame(Frame(Opcode.CLOSE, b"", masked=True),
                             rng=random.Random(10))
        connection.client_send(close, now + 5.0)
        connection.close(now + 5.0)
        record = collector.finalize(connection)
        assert record is not None
        assert record.campaign_id == "Research-010"
        assert record.domain == "diario1.es"
        assert record.exposure_seconds == pytest.approx(5.0)
        assert not record.truncated
        assert counted(collector, "records_committed") == 1

    def test_interactions_accumulate(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        send_text(collector, connection, "EVT|kind=mousemove|t=1.0", now + 1)
        send_text(collector, connection, "EVT|kind=mousemove|t=2.0", now + 2)
        send_text(collector, connection, "EVT|kind=click|t=3.0", now + 3)
        connection.close(now + 4)
        record = collector.finalize(connection)
        assert record.mouse_moves == 2
        assert record.clicks == 1

    def test_unmasked_client_frame_fails_session(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        frame = encode_frame(Frame(Opcode.TEXT, HELLO.encode(), masked=False))
        connection.client_send(frame, now)
        collector.process(connection)
        connection.close(now + 1)
        assert collector.finalize(connection) is None
        assert counted(collector, "malformed_messages") == 1

    def test_malformed_payload_dropped_but_session_continues(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, "BOGUS|x=1", now)
        send_text(collector, connection, HELLO, now + 1)
        connection.close(now + 2)
        record = collector.finalize(connection)
        assert record is not None
        assert counted(collector, "malformed_messages") == 1

    def test_duplicate_hello_counted_as_malformed(self, setup):
        collector, _, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        send_text(collector, connection, HELLO, now + 1)
        connection.close(now + 2)
        record = collector.finalize(connection)
        assert record is not None
        assert counted(collector, "malformed_messages") == 1

    def test_no_hello_connection_counted(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        connection.close(now + 2)
        assert collector.finalize(connection) is None
        assert counted(collector, "connections_without_hello") == 1

    def test_network_close_marks_truncated(self, setup):
        collector, _, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        connection.close(now + 2, initiator="network")  # no CLOSE frame
        record = collector.finalize(connection)
        assert record.truncated

    def test_oversized_claimed_frame_counted_as_malformed(self, setup):
        # A hostile client claiming a huge payload length must fail the
        # session immediately (counted as malformed), not make the server
        # buffer bytes until the claim is satisfied.
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        header = bytes([0x81 | 0x00, 0x80 | 127]) \
            + (1 << 30).to_bytes(8, "big") + b"\x01\x02\x03\x04"
        connection.client_send(header, now)
        collector.process(connection)
        assert counted(collector, "malformed_messages") == 1
        connection.close(now + 1)
        assert collector.finalize(connection) is None
        assert len(store) == 0

    def test_ping_frames_ignored(self, setup):
        collector, _, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        ping = encode_frame(Frame(Opcode.PING, b"hi", masked=True),
                            rng=random.Random(11))
        connection.client_send(ping, now + 1)
        collector.process(connection)
        connection.close(now + 2)
        assert collector.finalize(connection) is not None
        assert counted(collector, "malformed_messages") == 0


class TestFinalize:
    def test_finalize_open_connection_rejected(self, setup):
        collector, _, network = setup
        connection, _ = open_connection(collector, network)
        with pytest.raises(ValueError):
            collector.finalize(connection)
        # Session is retained for a later, correct finalize.
        assert collector.session_count() == 1

    def test_finalize_unknown_connection_is_noop(self, setup):
        collector, _, network = setup
        connection, now = open_connection(collector, network)
        connection.close(now + 1)
        collector.finalize(connection)
        assert collector.finalize(connection) is None

    def test_record_ids_are_sequential(self, setup):
        collector, store, network = setup
        for index in range(3):
            connection, now = open_connection(collector, network)
            send_text(collector, connection, HELLO, now)
            connection.close(now + 1)
            collector.finalize(connection)
        assert [record.record_id for record in store] == [1, 2, 3]


class TestFragmentedMessages:
    def test_fragmented_hello_reassembled(self, setup):
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        payload = HELLO.encode("utf-8")
        half = len(payload) // 2
        rng = random.Random(21)
        first = encode_frame(Frame(Opcode.TEXT, payload[:half], fin=False,
                                   masked=True), rng=rng)
        rest = encode_frame(Frame(Opcode.CONTINUATION, payload[half:],
                                  masked=True), rng=rng)
        connection.client_send(first, now)
        collector.process(connection)
        connection.client_send(rest, now + 0.5)
        collector.process(connection)
        connection.close(now + 2)
        record = collector.finalize(connection)
        assert record is not None
        assert record.campaign_id == "Research-010"

    def test_interleaved_new_message_fails_session(self, setup):
        collector, _, network = setup
        connection, now = open_connection(collector, network)
        rng = random.Random(22)
        fragment = encode_frame(Frame(Opcode.TEXT, b"partial", fin=False,
                                      masked=True), rng=rng)
        intruder = encode_frame(Frame(Opcode.TEXT, HELLO.encode(),
                                      masked=True), rng=rng)
        connection.client_send(fragment, now)
        connection.client_send(intruder, now + 1)
        collector.process(connection)
        connection.close(now + 2)
        assert collector.finalize(connection) is None
        assert counted(collector, "malformed_messages") == 1


HELLO_NONCED = HELLO + "|n=00c0ffee00c0ffee"


@pytest.fixture
def fault_setup():
    # An active-but-quiet plan: retries enabled turns the fault-mode
    # collector behaviour on (nonce dedup, quarantine) without any
    # injection dice perturbing the test's own traffic.
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan, RetryPolicy
    plan = FaultPlan(name="test", retry=RetryPolicy(max_attempts=2))
    clock = SimClock(1000.0)
    store = ImpressionStore()
    network = SimulatedNetwork(clock, random.Random(81),
                               NetworkConditions(connect_failure_rate=0.0,
                                                 mid_stream_failure_rate=0.0))
    collector = CollectorServer(store, injector=FaultInjector(plan))
    collector.attach(network)
    return collector, store, network


def deliver_once(collector, network, hello, close_frame=True):
    connection, now = open_connection(collector, network)
    send_text(collector, connection, hello, now)
    if close_frame:
        close = encode_frame(Frame(Opcode.CLOSE, b"", masked=True),
                             rng=random.Random(10))
        connection.client_send(close, now + 5.0)
    connection.close(now + 5.0)
    return collector.finalize(connection)


class TestIdempotentIngestion:
    def test_same_nonce_commits_once(self, fault_setup):
        collector, store, network = fault_setup
        first = deliver_once(collector, network, HELLO_NONCED)
        second = deliver_once(collector, network, HELLO_NONCED)
        assert first is not None
        assert second is None
        assert len(store) == 1
        assert counted(collector, "duplicates") == 1
        assert collector.last_finalize.duplicate
        assert collector.last_finalize.reason == "duplicate"
        assert not collector.last_finalize.committed

    def test_distinct_nonces_both_commit(self, fault_setup):
        collector, store, network = fault_setup
        assert deliver_once(collector, network,
                            HELLO + "|n=aaaa") is not None
        assert deliver_once(collector, network,
                            HELLO + "|n=bbbb") is not None
        assert len(store) == 2
        assert counted(collector, "duplicates") == 0

    def test_empty_nonce_never_dedups(self, fault_setup):
        # Legacy beacons without a nonce must keep committing freely.
        collector, store, network = fault_setup
        assert deliver_once(collector, network, HELLO) is not None
        assert deliver_once(collector, network, HELLO) is not None
        assert len(store) == 2
        assert counted(collector, "duplicates") == 0

    def test_inactive_collector_ignores_nonces(self, setup):
        collector, store, network = setup
        assert deliver_once(collector, network, HELLO_NONCED) is not None
        assert deliver_once(collector, network, HELLO_NONCED) is not None
        assert len(store) == 2
        assert counted(collector, "duplicates") == 0


class TestQuarantine:
    @staticmethod
    def send_corrupt_frame(collector, connection, now):
        frame = bytearray(encode_frame(
            Frame(Opcode.TEXT, b"junk", masked=True),
            rng=random.Random(13)))
        frame[0] |= 0x40  # reserved bit: decoder rejects the frame
        connection.client_send(bytes(frame), now)
        collector.process(connection)

    def test_corrupt_frame_quarantined_session_survives(self, fault_setup):
        collector, store, network = fault_setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO_NONCED, now)
        self.send_corrupt_frame(collector, connection, now + 1)
        # Later clean traffic on the same connection still counts.
        send_text(collector, connection, "EVT|kind=click|t=2.0", now + 2)
        connection.close(now + 3)
        record = collector.finalize(connection)
        assert record is not None
        assert record.clicks == 1
        assert counted(collector, "quarantined_frames") == 1
        assert counted(collector, "malformed_messages") == 1
        entries = collector.quarantine.entries()
        assert len(entries) == 1
        assert entries[0].connection_id == connection.connection_id
        assert entries[0].reason == "malformed"
        assert entries[0].domain == "diario1.es"
        assert entries[0].campaign_id == "Research-010"

    def test_quarantine_before_hello_has_no_attribution(self, fault_setup):
        collector, _, network = fault_setup
        connection, now = open_connection(collector, network)
        self.send_corrupt_frame(collector, connection, now)
        entries = collector.quarantine.entries()
        assert entries[0].domain == ""
        assert entries[0].campaign_id == ""
        connection.close(now + 1)
        assert collector.finalize(connection) is None
        assert collector.last_finalize.quarantined_frames == 1

    def test_inactive_collector_still_fails_session(self, setup):
        # The legacy error model is untouched without a fault plan: one
        # bad frame ends the session and the impression is lost.
        collector, store, network = setup
        connection, now = open_connection(collector, network)
        send_text(collector, connection, HELLO, now)
        self.send_corrupt_frame(collector, connection, now + 1)
        connection.close(now + 2)
        assert collector.finalize(connection) is None
        assert counted(collector, "quarantined_frames") == 0
        assert len(store) == 0
