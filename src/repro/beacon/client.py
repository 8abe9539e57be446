"""The beacon's WebSocket client side.

Runs in the visitor's browser right after the creative renders: opens the
connection to the collector (which stamps the impression), performs the
RFC 6455 handshake, ships the HELLO string, streams interaction events at
their offsets, and closes at page unload so the server-measured connection
duration equals the ad's exposure time.

Under an active fault plan the client additionally survives the network:
failed attempts (connect refused/timed out, mid-stream disconnects) are
retried with bounded exponential backoff + jitter on the sim clock, every
delivery carries a stable per-impression nonce so the collector can dedup
re-deliveries, and the whole attempt schedule is deterministic in the
shard's fault RNG stream — the same seed and plan reproduce the same
retries serial or parallel.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.adnetwork.server import DeliveredImpression
from repro.beacon.events import BeaconObservation
from repro.collector.payload import encode_hello, encode_interaction
from repro.collector.server import CollectorServer, FinalizeOutcome
from repro.faults.inject import NULL_INJECTOR, FaultInjector
from repro.faults.plan import RetryPolicy
from repro.net.transport import Endpoint, SimulatedNetwork
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.trace import NULL_TRACER, Tracer
from repro.net.websocket import (
    Frame,
    Opcode,
    accept_key,
    encode_frame,
    make_client_key,
    make_handshake_request,
)
from repro.util.hashing import stable_hash
from repro.util.simclock import SimClock


class DeliveryStatus(enum.Enum):
    """How far one beacon report made it."""

    DELIVERED = "delivered"
    CONNECT_FAILED = "connect_failed"
    DROPPED_MID_STREAM = "dropped"
    HANDSHAKE_FAILED = "handshake_failed"


#: Statuses worth another attempt: the server never saw a complete
#: report, so (with the nonce guarding against the truncated-commit
#: case) a retry can only add information.  A failed handshake is the
#: server *rejecting* us deterministically — retrying cannot help.
_RETRYABLE = (DeliveryStatus.CONNECT_FAILED,
              DeliveryStatus.DROPPED_MID_STREAM)


@dataclass(frozen=True)
class BeaconDelivery:
    """Outcome of one beacon execution that reached the network layer."""

    status: DeliveryStatus
    connection_id: Optional[int] = None
    #: How many connection attempts the client made (1 without faults).
    attempts: int = 1
    #: Did any attempt commit an impression record at the collector?
    committed: bool = False
    #: Deliveries the collector dedup-rejected via the nonce.
    duplicates: int = 0
    #: Malformed frames the collector quarantined across all attempts.
    quarantined_frames: int = 0
    #: Sim-clock instant each attempt started at (render-time first).
    attempt_instants: tuple[float, ...] = ()


@dataclass(frozen=True)
class _Attempt:
    """One connection attempt's outcome (internal to the retry loop)."""

    status: DeliveryStatus
    connection_id: Optional[int]
    failed_at: float
    finalize: Optional[FinalizeOutcome]


class BeaconClient:
    """Drives one connection per observed impression (plus retries)."""

    def __init__(self, network: SimulatedNetwork, collector: CollectorServer,
                 clock: SimClock, rng: random.Random,
                 tracer: Tracer | None = None,
                 injector: FaultInjector | None = None,
                 retry: RetryPolicy | None = None,
                 events: EventLog | None = None) -> None:
        self.network = network
        self.collector = collector
        self.clock = clock
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.retry = retry if retry is not None else self.injector.plan.retry
        self.events = events if events is not None else NULL_EVENTS

    def _nonce(self, impression: DeliveredImpression) -> str:
        """Stable per-impression delivery nonce (the dedup key)."""
        return format(stable_hash("beacon-nonce",
                                  impression.campaign.campaign_id,
                                  str(impression.impression_id)), "016x")

    def deliver(self, impression: DeliveredImpression,
                observation: BeaconObservation) -> BeaconDelivery:
        """Report one impression to the collector.

        Advances the shared clock to the impression's render instant, then
        through each interaction offset, and finally to page unload.  With
        retries enabled, retryable failures re-run the whole attempt after
        a deterministic backoff; the delivery summary aggregates every
        attempt.
        """
        render_time = (impression.pageview.timestamp
                       + impression.exposure.render_delay)
        tracer = self.tracer
        tracer.span("beacon.render",
                    start=impression.pageview.timestamp, end=render_time,
                    render_delay=impression.exposure.render_delay,
                    exposure_seconds=observation.exposure_seconds,
                    interactions=len(observation.interactions))
        # Keep the shared clock loosely in step for observers, but time the
        # connection itself arithmetically: beacon connections overlap, so
        # one global monotonic clock cannot sequence them.
        self.clock.advance_to(render_time)

        policy = self.retry
        # The nonce rides the wire whenever re-delivery is possible —
        # injected duplicates or retries — and never otherwise, keeping
        # fault-free wire bytes (and ws.bytes_fed) historical.
        nonce = self._nonce(impression) \
            if (self.injector.active or policy.max_attempts > 1) else ""

        attempts = 0
        duplicates = 0
        quarantined = 0
        committed = False
        duplicated = False
        connection_id: Optional[int] = None
        instants: list[float] = []
        attempt_time = render_time
        while True:
            attempts += 1
            instants.append(attempt_time)
            attempt = self._attempt(impression, observation, nonce,
                                    attempt_time, render_time)
            if attempt.connection_id is not None:
                connection_id = attempt.connection_id
            outcome = attempt.finalize
            if outcome is not None:
                committed = committed or outcome.committed
                duplicates += 1 if outcome.duplicate else 0
                quarantined += outcome.quarantined_frames
            status = attempt.status
            if status in _RETRYABLE and attempts < policy.max_attempts:
                backoff = (policy.backoff(attempts)
                           + self.injector.jitter(policy.jitter))
                self.injector.count("beacon.retries")
                tracer.event("beacon.retry", at=attempt.failed_at,
                             attempt=attempts, backoff_seconds=backoff,
                             reason=status.value)
                self.events.emit("beacon.retry", at=attempt.failed_at,
                                 attempt=attempts, backoff_seconds=backoff,
                                 reason=status.value)
                attempt_time = attempt.failed_at + backoff
                continue
            if (status is DeliveryStatus.DELIVERED and not duplicated
                    and self.injector.fires("delivery", "duplicate")):
                # At-least-once client whose ack "got lost": the full
                # report is re-sent once; the nonce makes it dedup.
                duplicated = True
                backoff = (policy.backoff(1)
                           + self.injector.jitter(policy.jitter))
                tracer.event("beacon.redeliver", at=attempt.failed_at,
                             backoff_seconds=backoff)
                self.events.emit("beacon.redeliver", at=attempt.failed_at,
                                 backoff_seconds=backoff)
                attempt_time = attempt.failed_at + backoff
                continue
            break
        if attempts > 1:
            self.injector.count("beacon.reattempted_deliveries")
            if committed:
                self.injector.count("beacon.recovered_deliveries")
        return BeaconDelivery(status=status, connection_id=connection_id,
                              attempts=attempts, committed=committed,
                              duplicates=duplicates,
                              quarantined_frames=quarantined,
                              attempt_instants=tuple(instants))

    def _attempt(self, impression: DeliveredImpression,
                 observation: BeaconObservation, nonce: str,
                 start_time: float, render_time: float) -> _Attempt:
        """One full connection attempt, starting at *start_time*.

        The first attempt (``start_time == render_time``) reproduces the
        pre-retry client byte-for-byte: same RNG draw order (port, client
        key, frame masks), same tracer spans, same clock advances.
        """
        tracer = self.tracer
        client_endpoint = Endpoint(ip=impression.pageview.ip,
                                   port=49152 + self.rng.randrange(16384))
        connection = self.network.connect(client_endpoint,
                                          self.collector.endpoint,
                                          at_time=start_time)
        if connection is None:
            failed_at = start_time
            if self.network.last_connect_failure == "fault_timeout":
                # A refused SYN fails instantly; a timed-out one charges
                # the configured wait before the client gives up.
                failed_at += self.network.faults.param("connect", "timeout")
            return _Attempt(DeliveryStatus.CONNECT_FAILED, None,
                            failed_at, None)
        # Handshake needs a round trip before application frames flow.
        now = connection.opened_at_server
        key = make_client_key(self.rng)
        connection.client_send(
            make_handshake_request(self.collector.endpoint.ip, "/beacon", key,
                                   origin=impression.pageview.url),
            now)
        self.collector.process(connection)
        response = connection.drain_client_inbox()
        if accept_key(key).encode("ascii") not in response:
            connection.close(now, initiator="client")
            self.collector.finalize(connection)
            tracer.end(at=now)
            return _Attempt(DeliveryStatus.HANDSHAKE_FAILED,
                            connection.connection_id, now,
                            self.collector.last_finalize)
        hello = encode_frame(Frame(Opcode.TEXT,
                                   encode_hello(observation,
                                                nonce=nonce).encode("utf-8"),
                                   masked=True), rng=self.rng)
        connection.client_send(hello, now, faultable=True)
        self.collector.process(connection)
        skew = self.clock.server_skew
        for event in observation.interactions:
            now = max(now, render_time + event.offset_seconds + skew)
            tracer.advance_to(now)
            if self.network.maybe_drop_mid_stream(connection, now):
                self.collector.finalize(connection)
                tracer.end(at=now)
                return _Attempt(DeliveryStatus.DROPPED_MID_STREAM,
                                connection.connection_id, now,
                                self.collector.last_finalize)
            frame = encode_frame(Frame(Opcode.TEXT,
                                       encode_interaction(event).encode("utf-8"),
                                       masked=True), rng=self.rng)
            connection.client_send(frame, now, faultable=True)
            self.collector.process(connection)
        now = max(render_time + observation.exposure_seconds + skew,
                  connection.opened_at_server)
        self.clock.advance_to(now - skew)
        tracer.advance_to(now)
        if self.network.maybe_drop_mid_stream(connection, now):
            self.collector.finalize(connection)
            tracer.end(at=now)
            return _Attempt(DeliveryStatus.DROPPED_MID_STREAM,
                            connection.connection_id, now,
                            self.collector.last_finalize)
        close = encode_frame(Frame(Opcode.CLOSE, b"", masked=True),
                             rng=self.rng)
        connection.client_send(close, now, faultable=True)
        connection.close(now, initiator="client")
        self.collector.finalize(connection)
        tracer.end(at=now)
        return _Attempt(DeliveryStatus.DELIVERED, connection.connection_id,
                        now, self.collector.last_finalize)
