"""RFC 6455 WebSocket framing and opening handshake.

The paper's beacon ships its measurements to the collector over WebSocket
(reference [25], RFC 6455).  This module implements the wire format from
scratch: the HTTP/1.1 upgrade handshake with the Sec-WebSocket-Accept key
derivation, and full frame encode/decode with client-side masking, 7/16/64
bit payload lengths, fragmentation, and control frames.

Only what a beacon-to-collector pipeline needs is implemented — no
extensions, no subprotocol negotiation — but what is implemented follows
the RFC closely enough to interoperate at the byte level.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

#: RFC 6455 §1.3 — fixed GUID appended to the client key before hashing.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

_MAX_CONTROL_PAYLOAD = 125

#: Default cap on a single frame's claimed payload length (1 MiB).  A peer
#: can claim up to 2**62 - 1 bytes in the header while sending none of
#: them; without a cap a streaming decoder would buffer forever waiting
#: for a payload that never arrives.
DEFAULT_MAX_FRAME_SIZE = 1 << 20


class WebSocketError(Exception):
    """Protocol violation while encoding, decoding, or handshaking."""


class Opcode(enum.IntEnum):
    """Frame opcodes defined by RFC 6455 §5.2."""

    CONTINUATION = 0x0
    TEXT = 0x1
    BINARY = 0x2
    CLOSE = 0x8
    PING = 0x9
    PONG = 0xA

    @property
    def is_control(self) -> bool:
        return self >= Opcode.CLOSE


@dataclass(frozen=True)
class Frame:
    """A decoded WebSocket frame."""

    opcode: Opcode
    payload: bytes
    fin: bool = True
    masked: bool = False

    def __post_init__(self) -> None:
        if self.opcode.is_control:
            if not self.fin:
                raise WebSocketError("control frames must not be fragmented")
            if len(self.payload) > _MAX_CONTROL_PAYLOAD:
                raise WebSocketError("control frame payload exceeds 125 bytes")

    @property
    def text(self) -> str:
        """Payload decoded as UTF-8 (the beacon sends text frames)."""
        try:
            return self.payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WebSocketError("invalid UTF-8 in text frame") from exc


def _apply_mask(payload: bytes, mask: bytes) -> bytes:
    """XOR-mask (or unmask — the operation is its own inverse).

    The XOR runs as one arbitrary-precision integer operation: the
    4-byte key is tiled across the payload length and both sides are
    lifted to big-ints, so the per-byte work happens in C instead of a
    Python-level loop.  Byte-identical to the literal per-byte loop of
    RFC 6455 §5.3 for every payload, including the empty one.
    """
    if len(mask) != 4:
        raise WebSocketError("mask key must be 4 bytes")
    length = len(payload)
    if length == 0:
        return b""
    tiled = (mask * ((length + 3) // 4))[:length]
    return (int.from_bytes(payload, "big")
            ^ int.from_bytes(tiled, "big")).to_bytes(length, "big")


def encode_frame(frame: Frame, mask_key: Optional[bytes] = None,
                 rng: Optional[random.Random] = None) -> bytes:
    """Serialise a frame to wire bytes.

    If ``frame.masked`` is true a 4-byte masking key is used — supplied via
    *mask_key* or drawn from *rng* (client-to-server frames MUST be masked
    per RFC 6455 §5.3; the simulated beacon always masks).  One of the two
    must be given for masked frames: falling back to the global ``random``
    module would silently break seed-determinism, which a reproduction
    repo cannot afford.
    """
    header = bytearray()
    header.append((0x80 if frame.fin else 0x00) | int(frame.opcode))
    length = len(frame.payload)
    mask_bit = 0x80 if frame.masked else 0x00
    if length <= 125:
        header.append(mask_bit | length)
    elif length <= 0xFFFF:
        header.append(mask_bit | 126)
        header += length.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += length.to_bytes(8, "big")
    if frame.masked:
        if mask_key is None:
            if rng is None:
                raise ValueError(
                    "masked frames need an explicit mask_key or rng; "
                    "implicit global randomness is not reproducible")
            mask_key = bytes(rng.getrandbits(8) for _ in range(4))
        if len(mask_key) != 4:
            raise WebSocketError("mask key must be 4 bytes")
        header += mask_key
        return bytes(header) + _apply_mask(frame.payload, mask_key)
    return bytes(header) + frame.payload


def decode_frame(data: "bytes | bytearray | memoryview",
                 max_frame_size: Optional[int] = None) -> tuple[Frame, int]:
    """Decode one frame from the head of *data*.

    Returns ``(frame, bytes_consumed)``.  Raises :class:`WebSocketError` on
    malformed input and ``IncompleteFrame`` (a subclass) when more bytes are
    needed — callers that stream should use :class:`FrameDecoder` instead.

    *data* may be any bytes-like object, including a :class:`memoryview`;
    the streaming decoder relies on that to avoid copying its buffer.
    When *max_frame_size* is set, a frame whose *claimed* payload length
    exceeds it is rejected immediately — before waiting for the payload.
    """
    if len(data) < 2:
        raise IncompleteFrame("need at least 2 header bytes")
    first, second = data[0], data[1]
    fin = bool(first & 0x80)
    if first & 0x70:
        raise WebSocketError("reserved bits set (no extensions negotiated)")
    try:
        opcode = Opcode(first & 0x0F)
    except ValueError as exc:
        raise WebSocketError(f"unknown opcode {first & 0x0F:#x}") from exc
    masked = bool(second & 0x80)
    length = second & 0x7F
    offset = 2
    if opcode.is_control and length > _MAX_CONTROL_PAYLOAD:
        raise WebSocketError("control frame payload exceeds 125 bytes")
    if length == 126:
        if len(data) < offset + 2:
            raise IncompleteFrame("need 16-bit length")
        length = int.from_bytes(data[offset:offset + 2], "big")
        if length <= 125:
            raise WebSocketError("non-minimal 16-bit length encoding")
        offset += 2
    elif length == 127:
        if len(data) < offset + 8:
            raise IncompleteFrame("need 64-bit length")
        length = int.from_bytes(data[offset:offset + 8], "big")
        if length <= 0xFFFF:
            raise WebSocketError("non-minimal 64-bit length encoding")
        if length >> 63:
            raise WebSocketError("most significant length bit must be 0")
        offset += 8
    if max_frame_size is not None and length > max_frame_size:
        raise FrameTooLarge(
            f"claimed payload length {length} exceeds max_frame_size "
            f"{max_frame_size}")
    mask_key = b""
    if masked:
        if len(data) < offset + 4:
            raise IncompleteFrame("need masking key")
        mask_key = bytes(data[offset:offset + 4])
        offset += 4
    if len(data) < offset + length:
        raise IncompleteFrame("need full payload")
    payload = bytes(data[offset:offset + length])
    if masked:
        payload = _apply_mask(payload, mask_key)
    return Frame(opcode=opcode, payload=payload, fin=fin, masked=masked), offset + length


class IncompleteFrame(WebSocketError):
    """More bytes are required before a frame can be decoded."""


class FrameTooLarge(WebSocketError):
    """A frame's claimed payload length exceeds the decoder's cap.

    Subclasses :class:`WebSocketError` so existing reject paths keep
    working; the distinct type lets the decoder count oversized frames
    separately from other malformed input.
    """


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, iterate frames.

    Mirrors how the collector's event loop consumes a TCP stream — frames
    may arrive split across segments or coalesced.

    >>> decoder = FrameDecoder()
    >>> wire = encode_frame(Frame(Opcode.TEXT, b"hi", masked=True),
    ...                     mask_key=b"\\x01\\x02\\x03\\x04")
    >>> [frame.text for frame in decoder.feed(wire)]
    ['hi']
    """

    def __init__(self, require_masked: bool = False,
                 max_frame_size: Optional[int] = DEFAULT_MAX_FRAME_SIZE,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Tracer | None = None,
                 connection_id: Optional[int] = None) -> None:
        self._buffer = bytearray()
        self.require_masked = require_masked
        self.max_frame_size = max_frame_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Which transport connection this decoder serves; rejection
        #: diagnostics carry it so quarantine records are addressable.
        self.connection_id = connection_id
        #: Absolute stream offset of ``_buffer[0]`` — bytes consumed (or
        #: dropped by :meth:`reset`) so far.  Frame-start offsets in
        #: rejection diagnostics are absolute stream positions, stable
        #: across buffer compactions.
        self._offset_base = 0
        #: Where/why the most recent rejection happened (None/"" before).
        self.last_error_offset: Optional[int] = None
        self.last_error_reason = ""
        # Sessions of one collector share a registry, so these counters
        # aggregate across every decoder the server creates.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics = metrics
        self._bytes_fed = metrics.counter("ws.bytes_fed")
        self._frames_decoded = metrics.counter("ws.frames_decoded")
        self._frames_oversized = metrics.counter("ws.frames_oversized")
        # Every malformed frame, oversized ones included.
        self._frames_rejected = metrics.counter("ws.frames_rejected")

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decodable into a complete frame."""
        return len(self._buffer)

    def reset(self) -> int:
        """Drop every buffered byte (quarantine recovery); returns count.

        After a malformed frame the buffer may hold arbitrary garbage
        with no reliable frame boundary, so recovery discards it wholly;
        ``_offset_base`` still advances past the dropped bytes, keeping
        later rejection offsets absolute.
        """
        dropped = len(self._buffer)
        self._offset_base += dropped
        try:
            self._buffer.clear()
        except BufferError:
            # A rejection traceback still exports the old buffer (the
            # decode error keeps its frame's memoryview slice alive);
            # replace the object instead of resizing it.
            self._buffer = bytearray()
        return dropped

    def _reject(self, error: WebSocketError, frame_start: int,
                reason: str) -> WebSocketError:
        """Enrich a rejection with connection id + absolute byte offset.

        Returns an exception of the *same class* whose message carries
        the context (so ``except FrameTooLarge`` etc. keep working),
        records the incident on the decoder, and labels a per-incident
        counter — the metrics answer *which* connection/offset failed,
        not just how many did.
        """
        absolute = self._offset_base + frame_start
        self.last_error_offset = absolute
        self.last_error_reason = reason
        connection = ("unknown" if self.connection_id is None
                      else self.connection_id)
        # Lazily-created labelled counter: fault-free runs never reject,
        # so the label series only exists once something actually broke.
        self._metrics.counter(
            f"ws.frames_rejected{{connection={connection},"
            f"offset={absolute},reason={reason}}}").inc()
        return type(error)(
            f"{error} (connection {connection}, "
            f"stream byte offset {absolute})")

    def feed(self, data: bytes) -> Iterator[Frame]:
        """Buffer *data* and yield every complete frame now available.

        Decoding walks the buffer through a :class:`memoryview` with an
        offset cursor — no per-frame copy of the remaining buffer — and the
        consumed prefix is compacted once, when the iterator finishes.  The
        returned iterator must therefore be exhausted (or closed) before
        ``feed`` is called again.
        """
        self._buffer.extend(data)
        self._bytes_fed.inc(len(data))
        offset = 0
        view = memoryview(self._buffer)
        try:
            while True:
                try:
                    frame, consumed = decode_frame(
                        view[offset:], max_frame_size=self.max_frame_size)
                except IncompleteFrame:
                    return
                except FrameTooLarge as error:
                    self._frames_oversized.inc()
                    self._frames_rejected.inc()
                    raise self._reject(error, offset,
                                       "frame_too_large") from error
                except WebSocketError as error:
                    self._frames_rejected.inc()
                    raise self._reject(error, offset,
                                       "malformed") from error
                if self.require_masked and not frame.masked:
                    self._frames_rejected.inc()
                    raise self._reject(
                        WebSocketError(
                            "server received unmasked client frame"),
                        offset, "unmasked")
                offset += consumed
                self._frames_decoded.inc()
                self.tracer.event("ws.frame", at=self.tracer.now,
                                  opcode=frame.opcode.name.lower(),
                                  payload_bytes=len(frame.payload))
                yield frame
        finally:
            view.release()
            if offset:
                self._offset_base += offset
                try:
                    del self._buffer[:offset]
                except BufferError:
                    # Only reachable on a rejection: the in-flight decode
                    # error's traceback still holds a memoryview slice of
                    # the buffer, which blocks resizing — copy the tail
                    # into a fresh buffer instead (read-only slicing is
                    # always allowed).
                    self._buffer = self._buffer[offset:]


class MessageAssembler:
    """Reassemble fragmented messages from a frame stream (RFC 6455 §5.4)."""

    def __init__(self) -> None:
        self._opcode: Optional[Opcode] = None
        self._parts: list[bytes] = []

    def push(self, frame: Frame) -> Optional[tuple[Opcode, bytes]]:
        """Add a data frame; returns (opcode, payload) when a message completes."""
        if frame.opcode.is_control:
            raise WebSocketError("control frames are not message fragments")
        if frame.opcode == Opcode.CONTINUATION:
            if self._opcode is None:
                raise WebSocketError("continuation frame with no message in progress")
        else:
            if self._opcode is not None:
                raise WebSocketError("new data frame while message in progress")
            self._opcode = frame.opcode
        self._parts.append(frame.payload)
        if not frame.fin:
            return None
        opcode, payload = self._opcode, b"".join(self._parts)
        self._opcode, self._parts = None, []
        return opcode, payload


def accept_key(client_key: str) -> str:
    """Derive Sec-WebSocket-Accept from Sec-WebSocket-Key (RFC 6455 §4.2.2)."""
    digest = hashlib.sha1((client_key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def make_client_key(rng: Optional[random.Random] = None) -> str:
    """A random 16-byte base64 client nonce for the opening handshake.

    An explicit *rng* is required: drawing the nonce from the global
    ``random`` module would make same-seed runs diverge at the wire level.
    """
    if rng is None:
        raise ValueError(
            "make_client_key needs an explicit rng; implicit global "
            "randomness is not reproducible")
    nonce = bytes(rng.getrandbits(8) for _ in range(16))
    return base64.b64encode(nonce).decode("ascii")


def make_handshake_request(host: str, path: str, client_key: str,
                           origin: str = "") -> bytes:
    """The client's HTTP/1.1 upgrade request."""
    lines = [
        f"GET {path} HTTP/1.1",
        f"Host: {host}",
        "Upgrade: websocket",
        "Connection: Upgrade",
        f"Sec-WebSocket-Key: {client_key}",
        "Sec-WebSocket-Version: 13",
    ]
    if origin:
        lines.append(f"Origin: {origin}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def make_handshake_response(client_key: str) -> bytes:
    """The server's 101 Switching Protocols response."""
    lines = [
        "HTTP/1.1 101 Switching Protocols",
        "Upgrade: websocket",
        "Connection: Upgrade",
        f"Sec-WebSocket-Accept: {accept_key(client_key)}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def parse_handshake_request(raw: bytes) -> dict[str, str]:
    """Parse an upgrade request; returns lower-cased header map (+ 'path').

    Raises :class:`WebSocketError` unless the request is a well-formed
    WebSocket upgrade (GET, Upgrade/Connection headers, version 13, key).
    """
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise WebSocketError("handshake is not ASCII") from exc
    head, _, _ = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3 or request_line[0] != "GET":
        raise WebSocketError(f"bad request line: {lines[0]!r}")
    headers: dict[str, str] = {"path": request_line[1]}
    for line in lines[1:]:
        name, separator, value = line.partition(":")
        if not separator:
            raise WebSocketError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("upgrade", "").lower() != "websocket":
        raise WebSocketError("missing Upgrade: websocket")
    if "upgrade" not in headers.get("connection", "").lower():
        raise WebSocketError("missing Connection: Upgrade")
    if headers.get("sec-websocket-version") != "13":
        raise WebSocketError("unsupported WebSocket version")
    if not headers.get("sec-websocket-key"):
        raise WebSocketError("missing Sec-WebSocket-Key")
    return headers
