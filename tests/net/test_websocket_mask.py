"""Masking equivalence: bulk big-int XOR vs. the reference byte loop.

The optimized ``_apply_mask`` must be byte-identical to the per-byte
reference below on every payload — these tests pin that across the
wire format's framing boundaries (125/126/65535/65536), the empty
payload, randomized payloads, and full encode→decode round trips in
both masked and unmasked form.
"""

import random

import pytest

from repro.net import websocket
from repro.net.websocket import (
    Frame,
    FrameDecoder,
    Opcode,
    WebSocketError,
    _apply_mask,
    decode_frame,
    encode_frame,
)


def _apply_mask_reference(payload: bytes, mask: bytes) -> bytes:
    """Per-byte masking loop (RFC 6455 §5.3, written literally)."""
    if len(mask) != 4:
        raise WebSocketError("mask key must be 4 bytes")
    return bytes(byte ^ mask[index % 4] for index, byte in enumerate(payload))

#: Payload sizes around every length-encoding switch of RFC 6455 plus
#: the empty payload and non-multiple-of-4 tails.
BOUNDARY_LENGTHS = [0, 1, 2, 3, 4, 5, 124, 125, 126, 127, 128,
                    65534, 65535, 65536, 65537]


class TestMaskEquivalence:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_boundary_lengths_match_reference(self, length):
        rng = random.Random(length)
        payload = rng.randbytes(length)
        mask = rng.randbytes(4)
        assert _apply_mask(payload, mask) == \
            _apply_mask_reference(payload, mask)

    def test_randomized_payloads_match_reference(self):
        rng = random.Random(20160406)
        for _ in range(200):
            payload = rng.randbytes(rng.randrange(0, 300))
            mask = rng.randbytes(4)
            assert _apply_mask(payload, mask) == \
                _apply_mask_reference(payload, mask)

    def test_zero_mask_is_identity(self):
        payload = bytes(range(256))
        assert _apply_mask(payload, b"\x00" * 4) == payload
        assert _apply_mask_reference(payload, b"\x00" * 4) == payload

    def test_empty_payload(self):
        mask = b"\x12\x34\x56\x78"
        assert _apply_mask(b"", mask) == b""
        assert _apply_mask_reference(b"", mask) == b""

    @pytest.mark.parametrize("bad_mask", [b"", b"\x01", b"\x01\x02\x03",
                                          b"\x01\x02\x03\x04\x05"])
    def test_both_reject_bad_mask_length(self, bad_mask):
        with pytest.raises(WebSocketError):
            _apply_mask(b"payload", bad_mask)
        with pytest.raises(WebSocketError):
            _apply_mask_reference(b"payload", bad_mask)


class TestRoundTripAtBoundaries:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_masked_roundtrip(self, length):
        rng = random.Random(1000 + length)
        payload = rng.randbytes(length)
        wire = encode_frame(Frame(Opcode.BINARY, payload, masked=True),
                            mask_key=rng.randbytes(4))
        decoded, consumed = decode_frame(wire)
        assert decoded.payload == payload
        assert decoded.masked
        assert consumed == len(wire)

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_unmasked_roundtrip(self, length):
        rng = random.Random(2000 + length)
        payload = rng.randbytes(length)
        decoded, _ = decode_frame(encode_frame(Frame(Opcode.BINARY, payload)))
        assert decoded.payload == payload
        assert not decoded.masked

    def test_wire_bytes_identical_between_modes(self, monkeypatch):
        # The optimized encoder must put the same bytes on the wire as
        # the reference byte loop, not merely round-trip — a frame is
        # compared byte-for-byte in both masked and unmasked form.
        rng = random.Random(99)
        payload = rng.randbytes(70000)
        mask_key = rng.randbytes(4)
        masked = Frame(Opcode.BINARY, payload, masked=True)
        plain = Frame(Opcode.BINARY, payload)
        optimized = (encode_frame(masked, mask_key=mask_key),
                     encode_frame(plain))
        monkeypatch.setattr(websocket, "_apply_mask", _apply_mask_reference)
        reference = (encode_frame(masked, mask_key=mask_key),
                     encode_frame(plain))
        assert optimized == reference

    def test_streaming_decoder_unmasks_large_frames(self):
        rng = random.Random(3)
        payload = rng.randbytes(65536 + 17)
        wire = encode_frame(Frame(Opcode.BINARY, payload, masked=True),
                            mask_key=rng.randbytes(4))
        decoder = FrameDecoder()
        frames = []
        for start in range(0, len(wire), 4096):
            frames.extend(decoder.feed(wire[start:start + 4096]))
        assert len(frames) == 1
        assert frames[0].payload == payload
