"""Fast-path equivalence for the beacon payload codec.

The collector's hot path skips the urllib codec when a value contains no
reserved characters and decodes canonical ``EVT`` messages with a single
partition.  Every observable behaviour — encoded bytes, parsed values,
and error type/message — must be identical to plain ``urllib.parse``
and to the generic parser.
"""

import urllib.parse

import pytest

from repro.beacon.events import (
    BeaconObservation,
    InteractionEvent,
    InteractionKind,
)
from repro.collector import payload
from repro.collector.payload import (
    PayloadError,
    _quote,
    _unquote,
    encode_hello,
    encode_interaction,
    parse_message,
)

TRICKY_VALUES = [
    "",
    "plain-value_1.2~ok",
    "has space",
    "pipe|and=equals",
    "percent%41already",
    "%",
    "%%",
    "100%",
    "a+b",
    "ünïcode-ño",
    "http://example.es/path?q=1&r=2",
    "\x1f\x00\n\t",
    "trailing%",
    "%2",
    "%GG",
]


class TestQuoteUnquoteEquivalence:
    @pytest.mark.parametrize("value", TRICKY_VALUES)
    def test_quote_matches_reference(self, value):
        assert _quote(value) == urllib.parse.quote(value, safe="")

    @pytest.mark.parametrize("value", TRICKY_VALUES)
    def test_unquote_matches_reference(self, value):
        assert _unquote(value) == urllib.parse.unquote(value)

    @pytest.mark.parametrize("value", TRICKY_VALUES)
    def test_roundtrip_through_fast_paths(self, value):
        assert _unquote(_quote(value)) == value

    def test_safe_value_is_returned_unchanged(self):
        value = "Research-010_creative.v2~x"
        assert _quote(value) is value
        assert _unquote(value) is value


class TestEncodeEquivalence:
    def test_hello_wire_identical_between_modes(self, monkeypatch):
        observation = BeaconObservation(
            campaign_id="Football-010", creative_id="Football-010-creative",
            page_url="http://futbol9.es/page/3?ref=a&b=c",
            user_agent="Mozilla/5.0 (X11; Linux x86_64) Chrome/50",
            interactions=(), exposure_seconds=2.0, pixels_in_view=True)
        optimized = encode_hello(observation)
        parsed = parse_message(optimized)
        monkeypatch.setattr(payload, "_quote",
                            lambda value: urllib.parse.quote(value, safe=""))
        monkeypatch.setattr(payload, "_unquote", urllib.parse.unquote)
        reference = encode_hello(observation)
        assert optimized == reference
        assert parsed == parse_message(reference)


def _parse_generic(raw, monkeypatch):
    """Parse *raw* with the EVT fast path declined, as for any
    non-canonical message."""
    with monkeypatch.context() as patch:
        patch.setattr(payload, "_parse_evt_fast", lambda raw: None)
        return parse_message(raw)


class TestEvtFastPath:
    @pytest.mark.parametrize("raw", [
        "EVT|kind=click|t=6.004",
        "EVT|kind=mousemove|t=0.000",
        "EVT|kind=mousemove|t=86400.125",
    ])
    def test_canonical_messages_parse_identically(self, raw, monkeypatch):
        assert parse_message(raw) == _parse_generic(raw, monkeypatch)

    @pytest.mark.parametrize("raw", [
        "EVT|kind=click",                       # missing timestamp
        "EVT|kind=click|t=",                    # empty timestamp
        "EVT|kind=|t=1.0",                      # empty kind
        "EVT|kind=teleport|t=1.0",              # unknown kind
        "EVT|kind=click|t=abc",                 # non-numeric timestamp
        "EVT|kind=click|t=-1.0",                # negative timestamp
        "EVT|kind=click|t=1.0|t=2.0",           # duplicate field
        "EVT|kind=click|kind=click|t=1.0",      # duplicate kind
        "EVT|kind=click|t=1.0|",                # trailing delimiter
        "EVT|kind=click|t=1.0|extra",           # malformed extra field
    ])
    def test_error_messages_identical_to_reference(self, raw, monkeypatch):
        with pytest.raises(PayloadError) as optimized:
            parse_message(raw)
        with pytest.raises(PayloadError) as reference:
            _parse_generic(raw, monkeypatch)
        assert str(optimized.value) == str(reference.value)

    def test_roundtrip_with_fast_path(self):
        for kind in InteractionKind:
            message = parse_message(encode_interaction(
                InteractionEvent(kind, 3.2171)))
            assert message.kind is kind
            assert message.offset_seconds == pytest.approx(3.217, abs=5e-4)
