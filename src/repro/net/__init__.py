"""Networking substrate.

Implements the wire-level pieces the paper's collection pipeline rests on:
IPv4 address/CIDR arithmetic, a longest-prefix-match trie (backing the
MaxMind-style IP database), RFC 6455 WebSocket framing with the HTTP
upgrade handshake, a simulated transport layer with latency/loss, and
User-Agent string generation/parsing.
"""

from repro.net.ipv4 import (
    ip_to_int,
    int_to_ip,
    parse_cidr,
    Cidr,
)
from repro.net.cidrtrie import CidrTrie
from repro.net.websocket import (
    WebSocketError,
    Opcode,
    Frame,
    encode_frame,
    decode_frame,
    FrameDecoder,
    make_handshake_request,
    make_handshake_response,
    accept_key,
)
from repro.net.transport import (
    SimulatedNetwork,
    Connection,
    ConnectionClosed,
)
from repro.net.useragent import UserAgent, generate_user_agent, parse_user_agent

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "parse_cidr",
    "Cidr",
    "CidrTrie",
    "WebSocketError",
    "Opcode",
    "Frame",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "make_handshake_request",
    "make_handshake_response",
    "accept_key",
    "SimulatedNetwork",
    "Connection",
    "ConnectionClosed",
    "UserAgent",
    "generate_user_agent",
    "parse_user_agent",
]
