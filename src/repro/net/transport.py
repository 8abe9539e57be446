"""Simulated transport layer.

Models the network between the device that renders an ad impression and the
central collector: connection establishment (which can fail), per-direction
latency, byte-stream delivery, and connection teardown.  The collector
measures exposure time as *connection duration at the server side* — the
paper's trick — so the transport records open/close instants on the server
clock.

This is a discrete simulation, not asyncio: browsing sessions drive the
clock, and delivery is immediate-but-timestamped, which is all the audit
pipeline observes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.inject import NULL_INJECTOR, FaultInjector
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.simclock import SimClock


class ConnectionClosed(Exception):
    """Raised when writing to or closing an already-closed connection."""


@dataclass
class Endpoint:
    """One side of a connection."""

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass
class Connection:
    """A simulated full-duplex byte-stream connection.

    Client writes land in ``server_inbox`` (after the configured latency is
    charged against the shared clock bookkeeping) and vice versa.  The
    server-side open/close timestamps are the collector's raw material for
    impression timestamp and exposure time.
    """

    client: Endpoint
    server: Endpoint
    opened_at_server: float
    latency: float
    connection_id: int
    server_inbox: bytearray = field(default_factory=bytearray)
    client_inbox: bytearray = field(default_factory=bytearray)
    closed_at_server: Optional[float] = None
    close_initiator: str = ""
    #: The shard's injector, for frame-stage faults; attached by the
    #: network only when a fault plan is active, so fault-free
    #: connections pay nothing.
    faults: Optional[FaultInjector] = None

    @property
    def is_open(self) -> bool:
        return self.closed_at_server is None

    def _closed_detail(self) -> str:
        """Self-describing closed-state summary for error messages."""
        initiator = self.close_initiator or "unknown"
        return (f"connection {self.connection_id} closed by {initiator} "
                f"at server instant {self.closed_at_server:.3f}")

    def client_send(self, data: bytes, now_server: float,
                    faultable: bool = False) -> None:
        """Deliver client bytes to the server side.

        ``faultable=True`` marks application frames eligible for
        frame-stage fault injection (truncation/bit flips); handshake
        bytes stay pristine so injected corruption exercises the frame
        decoder, not the HTTP parser.
        """
        if not self.is_open:
            raise ConnectionClosed(f"cannot send on {self._closed_detail()}")
        if now_server < self.opened_at_server:
            raise ValueError("send before connection establishment")
        if faultable and self.faults is not None:
            data, _ = self.faults.mangle(data)
        self.server_inbox.extend(data)

    def server_send(self, data: bytes, now_server: float) -> None:
        """Deliver server bytes to the client side."""
        if not self.is_open:
            raise ConnectionClosed(f"cannot send on {self._closed_detail()}")
        if now_server < self.opened_at_server:
            raise ValueError("send before connection establishment")
        self.client_inbox.extend(data)

    def drain_server_inbox(self) -> bytes:
        """Take every byte the server has not yet consumed."""
        data = bytes(self.server_inbox)
        self.server_inbox.clear()
        return data

    def drain_client_inbox(self) -> bytes:
        """Take every byte the client has not yet consumed."""
        data = bytes(self.client_inbox)
        self.client_inbox.clear()
        return data

    def close(self, now_server: float, initiator: str = "client") -> None:
        """Tear the connection down; records the server-side close instant."""
        if not self.is_open:
            raise ConnectionClosed(
                f"cannot close already-closed {self._closed_detail()}")
        if now_server < self.opened_at_server:
            raise ValueError("close before connection establishment")
        self.closed_at_server = now_server
        self.close_initiator = initiator

    @property
    def duration(self) -> float:
        """Server-measured connection duration (the exposure-time estimate)."""
        if self.closed_at_server is None:
            raise ConnectionClosed("connection still open; duration unknown")
        return self.closed_at_server - self.opened_at_server


@dataclass
class NetworkConditions:
    """Loss and latency knobs for the simulated path to the collector."""

    connect_failure_rate: float = 0.01
    mid_stream_failure_rate: float = 0.002
    base_latency: float = 0.04
    latency_jitter: float = 0.06

    def __post_init__(self) -> None:
        for name in ("connect_failure_rate", "mid_stream_failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.base_latency < 0 or self.latency_jitter < 0:
            raise ValueError("latencies must be non-negative")


class SimulatedNetwork:
    """Connection factory with failure injection.

    The collector's measurement-error model lives here: a connection attempt
    can fail outright (impression never logged) or die mid-stream (logged
    with truncated exposure).  Callbacks let the collector observe accepted
    connections the way a listening socket would.
    """

    def __init__(self, clock: SimClock, rng: random.Random,
                 conditions: Optional[NetworkConditions] = None,
                 tracer: Tracer | None = None,
                 injector: FaultInjector | None = None) -> None:
        self.clock = clock
        self.rng = rng
        self.conditions = conditions or NetworkConditions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = injector if injector is not None else NULL_INJECTOR
        self._next_connection_id = 1
        self._accept_callback: Optional[Callable[[Connection], None]] = None
        self.connections: list[Connection] = []
        self.failed_connects = 0
        #: Why the most recent connect() returned None ("" after success):
        #: "syn_lost", "fault_refused", or "fault_timeout".  The beacon
        #: client reads it to charge the right delay before retrying.
        self.last_connect_failure = ""

    def on_accept(self, callback: Callable[[Connection], None]) -> None:
        """Register the server's accept handler (one listener, like the paper)."""
        self._accept_callback = callback

    def sample_latency(self) -> float:
        """One-way latency draw for a new connection."""
        jitter = self.rng.random() * self.conditions.latency_jitter
        return self.conditions.base_latency + jitter

    def connect(self, client: Endpoint, server: Endpoint,
                at_time: Optional[float] = None) -> Optional[Connection]:
        """Attempt connection establishment.

        *at_time* is the client-side instant the connection is initiated
        (defaults to the shared clock's now).  Connections are timed
        arithmetically from it rather than from the shared clock, because
        real beacon connections overlap freely — the clock only provides
        the server skew.

        Returns the connection, or None when the simulated SYN is lost —
        the corresponding impression will simply be missing from the
        collector dataset, as §3.1 of the paper warns.
        """
        if at_time is None:
            at_time = self.clock.now()
        self.last_connect_failure = ""
        # The baseline SYN-loss roll always happens first, preserving the
        # exact draw order of fault-free runs; injected connect faults
        # only roll afterwards (and only when configured).
        if self.rng.random() < self.conditions.connect_failure_rate:
            self.failed_connects += 1
            self.last_connect_failure = "syn_lost"
            self.tracer.event("transport.connect", at=at_time,
                              ok=False, reason="syn_lost")
            return None
        faults = self.faults
        if faults.active:
            if faults.fires("connect", "refused"):
                self.failed_connects += 1
                self.last_connect_failure = "fault_refused"
                self.tracer.event("transport.connect", at=at_time,
                                  ok=False, reason="fault_refused")
                return None
            if faults.fires("connect", "timeout"):
                self.failed_connects += 1
                self.last_connect_failure = "fault_timeout"
                self.tracer.event(
                    "transport.connect", at=at_time, ok=False,
                    reason="fault_timeout",
                    timeout_seconds=faults.param("connect", "timeout"))
                return None
        latency = self.sample_latency()
        connection = Connection(
            client=client,
            server=server,
            opened_at_server=at_time + latency + self.clock.server_skew,
            latency=latency,
            connection_id=self._next_connection_id,
        )
        self._next_connection_id += 1
        if faults.active:
            if faults.fires("collector", "backpressure"):
                # Slow accept: the server notices the connection late, so
                # the measured open instant (= impression timestamp, and
                # the floor of the exposure window) shifts by the delay.
                connection.opened_at_server += faults.param(
                    "collector", "backpressure")
            connection.faults = faults
        self.connections.append(connection)
        self.tracer.begin("transport.connect", at=at_time, ok=True,
                          connection=connection.connection_id,
                          latency=latency)
        self.tracer.advance_to(connection.opened_at_server)
        if self._accept_callback is not None:
            self._accept_callback(connection)
        return connection

    def maybe_drop_mid_stream(self, connection: Connection, now_server: float) -> bool:
        """Roll for a mid-stream failure; closes the connection if it hits."""
        if not connection.is_open:
            return False
        if self.rng.random() < self.conditions.mid_stream_failure_rate:
            connection.close(now_server, initiator="network")
            self.tracer.event("transport.drop", at=now_server,
                              connection=connection.connection_id)
            return True
        if self.faults.fires("stream", "disconnect"):
            connection.close(now_server, initiator="network")
            self.tracer.event("transport.drop", at=now_server,
                              connection=connection.connection_id,
                              fault=True)
            return True
        return False
