"""The central collection server.

The Node.js server of the paper, in Python: accepts WebSocket connections
from beacons, performs the upgrade handshake, decodes masked frames,
parses the reported strings, and — on connection teardown — commits one
impression record per connection:

* the **timestamp** is the server's local time at connection
  establishment,
* the **exposure time** is the server-measured connection duration,
* the **IP address** is the connection's remote endpoint.

Connections that never produce a valid HELLO (handshake garbage, malformed
payloads, network deaths before the first frame) are counted and dropped —
the §3.1 error model in action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collector.payload import (
    HelloMessage,
    InteractionMessage,
    PayloadError,
    parse_message,
)
from repro.collector.store import ImpressionRecord, ImpressionStore
from repro.faults.inject import NULL_INJECTOR, FaultInjector
from repro.faults.quarantine import QuarantineEntry, QuarantineLog
from repro.net.transport import Connection, Endpoint, SimulatedNetwork
from repro.net.websocket import (
    Frame,
    FrameDecoder,
    MessageAssembler,
    Opcode,
    WebSocketError,
    make_handshake_response,
    parse_handshake_request,
)
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import wall_timer
from repro.obs.trace import NULL_TRACER, Tracer

#: Fixed edges for the (sim-domain) connection-duration histogram —
#: sub-second beacon failures through multi-minute exposures.
CONNECTION_SECONDS_EDGES = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0)


@dataclass
class _Session:
    """Per-connection server state."""

    connection: Connection
    decoder: FrameDecoder
    handshake_done: bool = False
    handshake_buffer: bytearray = field(default_factory=bytearray)
    assembler: MessageAssembler = field(default_factory=MessageAssembler)
    hello: Optional[HelloMessage] = None
    mouse_moves: int = 0
    clicks: int = 0
    got_close_frame: bool = False
    failed: bool = False
    finalized: bool = False
    #: Delivery nonce from the HELLO (idempotency key; "" when absent).
    nonce: str = ""
    #: Malformed frames quarantined on this connection (fault mode only).
    quarantined_frames: int = 0


@dataclass
class FinalizeOutcome:
    """What :meth:`CollectorServer.finalize` decided for one connection.

    The beacon client reads ``last_finalize`` to learn whether its
    delivery actually committed (vs. was dedup-rejected or lost), which
    is what the coverage report's reconciliation is built from.
    """

    committed: bool = False
    duplicate: bool = False
    record_id: Optional[int] = None
    quarantined_frames: int = 0
    reason: str = ""


class CollectorServer:
    """Accepts beacon connections and writes the impression database.

    Error/commit counts live only in a :class:`MetricsRegistry` (the
    shard's, when one is passed in), so the collector contributes to the
    run's mergeable :class:`~repro.obs.metrics.MetricsSnapshot`; read them
    from its snapshot.
    """

    DEFAULT_ENDPOINT = Endpoint(ip="198.51.100.10", port=443)

    def __init__(self, store: ImpressionStore,
                 endpoint: Endpoint | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 injector: FaultInjector | None = None,
                 events: EventLog | None = None) -> None:
        self.store = store
        self.endpoint = endpoint or self.DEFAULT_ENDPOINT
        self._sessions: dict[int, _Session] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = injector if injector is not None else NULL_INJECTOR
        self.events = events if events is not None else NULL_EVENTS
        self.quarantine = QuarantineLog()
        self.last_finalize = FinalizeOutcome()
        self._seen_nonces: dict[str, int] = {}
        # Fault-mode instruments are registered only when a plan is
        # active: a fault-free run's metrics snapshot must be
        # byte-identical to a build without the fault layer.
        self._duplicates_counter = None
        self._quarantined_counter = None
        if self.faults.active:
            # Deliveries dedup-rejected by the beacon nonce, and malformed
            # frames quarantined instead of killing the connection.
            self._duplicates_counter = self.metrics.counter(
                "collector.duplicates")
            self._quarantined_counter = self.metrics.counter(
                "collector.quarantined_frames")
        self._handshake_failures = self.metrics.counter(
            "collector.handshake_failures")
        # Frames and payloads rejected after the handshake.
        self._malformed_messages = self.metrics.counter(
            "collector.malformed_messages")
        self._connections_without_hello = self.metrics.counter(
            "collector.connections_without_hello")
        self._records_committed = self.metrics.counter(
            "collector.records_committed")
        self._connections_accepted = self.metrics.counter(
            "collector.connections_accepted")
        # Server-measured durations of committed connections.
        self._connection_seconds = self.metrics.histogram(
            "collector.connection_seconds", CONNECTION_SECONDS_EDGES)
        # One observation per process() call.
        self._decode_timer = wall_timer(
            self.metrics, "collector.decode_wall_seconds")

    def attach(self, network: SimulatedNetwork) -> None:
        """Register as the listening server on *network*."""
        network.on_accept(self._accept)

    def _accept(self, connection: Connection) -> None:
        self._connections_accepted.inc()
        self._sessions[connection.connection_id] = _Session(
            connection=connection,
            decoder=FrameDecoder(require_masked=True, metrics=self.metrics,
                                 tracer=self.tracer,
                                 connection_id=connection.connection_id))

    def session_count(self) -> int:
        """Connections currently tracked (not yet finalized)."""
        return len(self._sessions)

    # ------------------------------------------------------------------ #

    def process(self, connection: Connection) -> None:
        """Consume whatever bytes the connection has pending.

        Driven by the simulation whenever the client flushes — the
        event-loop callback of the real Node.js server.
        """
        session = self._sessions.get(connection.connection_id)
        if session is None or session.failed:
            return
        data = connection.drain_server_inbox()
        if not data:
            return
        if not session.handshake_done:
            data = self._handle_handshake(session, data)
            if session.failed or data is None:
                return
        try:
            with self._decode_timer.measure():
                for frame in session.decoder.feed(data):
                    self._handle_frame(session, frame)
        except WebSocketError as error:
            self._malformed_messages.inc()
            if self.faults.active:
                # Quarantine instead of killing the connection loop: the
                # decoder's garbage is dropped, the incident logged, and
                # the session keeps consuming later (clean) frames.
                self._quarantine_frame(session, error)
            else:
                session.failed = True

    def _quarantine_frame(self, session: _Session,
                          error: WebSocketError) -> None:
        from repro.web.publisher import domain_of_url

        decoder = session.decoder
        dropped = decoder.reset()
        session.quarantined_frames += 1
        self._quarantined_counter.inc()
        hello = session.hello
        offset = decoder.last_error_offset
        entry = QuarantineEntry(
            connection_id=session.connection.connection_id,
            byte_offset=0 if offset is None else offset,
            reason=decoder.last_error_reason or "malformed",
            domain=domain_of_url(hello.url) if hello is not None else "",
            campaign_id=hello.campaign_id if hello is not None else "")
        self.quarantine.record(entry)
        self.tracer.event("collector.quarantine", at=self.tracer.now,
                          connection=entry.connection_id,
                          offset=entry.byte_offset,
                          reason=entry.reason,
                          dropped_bytes=dropped,
                          detail=str(error))
        self.events.emit("frame.quarantined", at=self.tracer.now,
                         connection=entry.connection_id,
                         offset=entry.byte_offset, reason=entry.reason)

    def _handle_handshake(self, session: _Session,
                          data: bytes) -> Optional[bytes]:
        """Returns post-handshake leftover bytes, or None if still waiting."""
        session.handshake_buffer.extend(data)
        marker = session.handshake_buffer.find(b"\r\n\r\n")
        if marker < 0:
            return None
        raw = bytes(session.handshake_buffer[: marker + 4])
        leftover = bytes(session.handshake_buffer[marker + 4:])
        session.handshake_buffer.clear()
        try:
            headers = parse_handshake_request(raw)
        except WebSocketError:
            self._handshake_failures.inc()
            session.failed = True
            return None
        session.handshake_done = True
        if session.connection.is_open:
            response = make_handshake_response(headers["sec-websocket-key"])
            session.connection.server_send(
                response, session.connection.opened_at_server)
        return leftover

    def _handle_frame(self, session: _Session, frame: Frame) -> None:
        if frame.opcode is Opcode.CLOSE:
            session.got_close_frame = True
            return
        if frame.opcode in (Opcode.PING, Opcode.PONG):
            return
        # Data frames may arrive fragmented (RFC 6455 §5.4); reassemble
        # before interpreting the payload.
        try:
            assembled = session.assembler.push(frame)
        except WebSocketError:
            self._malformed_messages.inc()
            session.failed = True
            return
        if assembled is None:
            return
        opcode, payload = assembled
        if opcode is not Opcode.TEXT:
            self._malformed_messages.inc()
            return
        try:
            message = parse_message(payload.decode("utf-8"))
        except (UnicodeDecodeError, PayloadError):
            self._malformed_messages.inc()
            return
        if isinstance(message, HelloMessage):
            if session.hello is None:
                session.hello = message
                session.nonce = message.nonce
            else:
                self._malformed_messages.inc()
        elif isinstance(message, InteractionMessage):
            if message.kind.value == "mousemove":
                session.mouse_moves += 1
            else:
                session.clicks += 1

    # ------------------------------------------------------------------ #

    def finalize(self, connection: Connection) -> Optional[ImpressionRecord]:
        """Commit the connection's impression once it is closed.

        Must be called after the transport close; consumes any last bytes
        first (the client's CLOSE frame usually races the teardown).
        """
        self.process(connection)
        session = self._sessions.pop(connection.connection_id, None)
        if session is None:
            return None
        if connection.is_open:
            # A finalize on an open connection is a server-side programming
            # error; re-track the session rather than lose data silently.
            self._sessions[connection.connection_id] = session
            raise ValueError("cannot finalize an open connection")
        if session.failed or session.hello is None:
            self._connections_without_hello.inc()
            reason = "failed" if session.failed else "no_hello"
            self.last_finalize = FinalizeOutcome(
                quarantined_frames=session.quarantined_frames, reason=reason)
            self.tracer.span(
                "collector.ingest",
                start=connection.opened_at_server,
                end=connection.closed_at_server,
                committed=False,
                reason=reason,
                close_initiator=connection.close_initiator)
            return None
        hello = session.hello
        # Idempotent ingestion: the HELLO's delivery nonce is the
        # dedup key.  A retried (or fault-duplicated) delivery of an
        # impression that already committed — possibly as a truncated
        # record from the aborted first attempt — is rejected here
        # instead of inflating the audit counts.
        if self.faults.active and session.nonce:
            earlier = self._seen_nonces.get(session.nonce)
            if earlier is not None:
                self._duplicates_counter.inc()
                self.last_finalize = FinalizeOutcome(
                    duplicate=True,
                    quarantined_frames=session.quarantined_frames,
                    reason="duplicate")
                self.tracer.span(
                    "collector.ingest",
                    start=connection.opened_at_server,
                    end=connection.closed_at_server,
                    committed=False, reason="duplicate",
                    duplicate_of=earlier,
                    close_initiator=connection.close_initiator)
                return None
        record = ImpressionRecord(
            record_id=self.store.next_record_id(),
            campaign_id=hello.campaign_id,
            creative_id=hello.creative_id,
            url=hello.url,
            user_agent=hello.user_agent,
            ip=connection.client.ip,
            timestamp=connection.opened_at_server,
            exposure_seconds=max(0.0, connection.duration),
            mouse_moves=session.mouse_moves,
            clicks=session.clicks,
            truncated=not session.got_close_frame,
            pixels_in_view=hello.pixels_in_view,
        )
        self.store.insert(record)
        self._records_committed.inc()
        self._connection_seconds.observe(record.exposure_seconds)
        if self.faults.active and session.nonce:
            self._seen_nonces[session.nonce] = record.record_id
        self.last_finalize = FinalizeOutcome(
            committed=True, record_id=record.record_id,
            quarantined_frames=session.quarantined_frames)
        self.tracer.set_record(record.record_id)
        self.tracer.span(
            "collector.ingest",
            start=connection.opened_at_server,
            end=connection.closed_at_server,
            committed=True, record=record.record_id,
            exposure_seconds=record.exposure_seconds,
            truncated=record.truncated,
            close_initiator=connection.close_initiator)
        return record
