"""Beacon wire format.

The paper transfers "the information ... in the form of a string" over the
WebSocket.  We pin that string down: pipe-delimited key=value pairs with
percent-encoding, one HELLO message per impression followed by zero or more
EVT messages for interactions.

    HELLO|v=1|cid=Research-010|cr=Research-010-creative|url=http%3A//...|ua=Mozilla...
    EVT|kind=mousemove|t=3.217
    EVT|kind=click|t=6.004

Both sides share this module: the beacon client encodes, the collector
parses (strictly — a malformed message is counted and dropped, never
guessed at).
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass

from repro.beacon.events import BeaconObservation, InteractionEvent, InteractionKind

_VERSION = "1"

#: Characters ``urllib.parse.quote(value, safe="")`` passes through
#: untouched.  A value made only of these needs no codec work at all —
#: which covers every campaign id, creative id and most URLs the beacon
#: actually sends — so both directions fast-path on this set.
_ALWAYS_SAFE = ("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                "abcdefghijklmnopqrstuvwxyz"
                "0123456789_.-~")


class PayloadError(Exception):
    """Malformed beacon message."""


@dataclass(frozen=True)
class HelloMessage:
    """The per-impression announcement.

    ``pixels_in_view`` is present only when the creative ran inside a
    SafeFrame-style iframe whose geometry the script could read.
    """

    campaign_id: str
    creative_id: str
    url: str
    user_agent: str
    pixels_in_view: "bool | None" = None
    #: Stable per-impression delivery nonce (``n=`` field).  Emitted only
    #: when fault injection/retries are active: it is the collector's
    #: idempotency key, letting retried or duplicated deliveries of the
    #: same impression dedup to one record.  Empty when absent.
    nonce: str = ""


@dataclass(frozen=True)
class InteractionMessage:
    """One pointer interaction report."""

    kind: InteractionKind
    offset_seconds: float


def _quote(value: str) -> str:
    # str.strip with a chars argument removes characters from that set at
    # both ends; an empty result therefore proves every character is in
    # the always-safe set, in one C-level scan.
    if not value.strip(_ALWAYS_SAFE):
        return value
    return urllib.parse.quote(value, safe="")


def _unquote(value: str) -> str:
    # unquote only ever rewrites %XX escapes, so a value without a
    # percent sign round-trips unchanged.
    if "%" in value:
        return urllib.parse.unquote(value)
    return value


def encode_hello(observation: BeaconObservation, nonce: str = "") -> str:
    """Serialise the impression announcement.

    *nonce* (the delivery idempotency key) is appended as ``n=`` only
    when non-empty, so fault-free runs put exactly the historical bytes
    on the wire.
    """
    parts = [
        "HELLO",
        f"v={_VERSION}",
        f"cid={_quote(observation.campaign_id)}",
        f"cr={_quote(observation.creative_id)}",
        f"url={_quote(observation.page_url)}",
        f"ua={_quote(observation.user_agent)}",
    ]
    if observation.pixels_in_view is not None:
        parts.append(f"pv={1 if observation.pixels_in_view else 0}")
    if nonce:
        parts.append(f"n={_quote(nonce)}")
    return "|".join(parts)


def encode_interaction(event: InteractionEvent) -> str:
    """Serialise one interaction event.

    The timestamp is quantised to the wire format's millisecond
    resolution: ``t`` is rendered with ``{offset:.3f}``, which rounds
    half-to-even, so ``parse_message(encode_interaction(e))`` recovers
    the offset to within 0.5 ms (exactly, for offsets already on a
    millisecond grid).  Sub-millisecond precision is deliberately not
    carried on the wire — the beacon's clock never resolves finer.
    """
    return f"EVT|kind={event.kind.value}|t={event.offset_seconds:.3f}"


def _fields(parts: list[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for part in parts:
        key, separator, value = part.partition("=")
        if not separator or not key:
            raise PayloadError(f"malformed field: {part!r}")
        if key in fields:
            raise PayloadError(f"duplicate field: {key!r}")
        fields[key] = value
    return fields


def _parse_evt_fast(raw: str) -> "InteractionMessage | None":
    """Fast path for the canonical ``EVT|kind=K|t=T`` shape.

    EVT is the high-volume message (several per impression), so the
    common three-field form is decoded with one ``partition`` instead of
    a full split + field-dict build.  Returns None — falling back to the
    strict generic parser — whenever the message deviates from the
    canonical shape, so error semantics (duplicate fields, malformed
    pairs) are byte-identical to the generic parser's.
    """
    rest = raw[9:]  # past "EVT|kind="
    kind_value, separator, t_value = rest.partition("|t=")
    if not separator or "|" in kind_value or "|" in t_value:
        return None
    try:
        kind = InteractionKind(kind_value)
    except ValueError:
        raise PayloadError(
            f"unknown interaction kind: {kind_value!r}") from None
    try:
        offset = float(t_value)
    except ValueError:
        raise PayloadError(f"bad EVT timestamp: {t_value!r}") from None
    if offset < 0:
        raise PayloadError("negative EVT timestamp")
    return InteractionMessage(kind=kind, offset_seconds=offset)


def parse_message(raw: str) -> HelloMessage | InteractionMessage:
    """Parse one beacon message; raises :class:`PayloadError` when invalid.

    ``EVT`` timestamps are read back at the wire's millisecond
    quantisation (see :func:`encode_interaction`): the parsed
    ``offset_seconds`` is within 0.5 ms of the value the beacon encoded.
    """
    if not raw:
        raise PayloadError("empty message")
    if raw.startswith("EVT|kind="):
        message = _parse_evt_fast(raw)
        if message is not None:
            return message
    parts = raw.split("|")
    tag = parts[0]
    if tag == "HELLO":
        fields = _fields(parts[1:])
        if fields.get("v") != _VERSION:
            raise PayloadError(f"unsupported payload version: {fields.get('v')!r}")
        try:
            campaign_id = _unquote(fields["cid"])
            creative_id = _unquote(fields["cr"])
            url = _unquote(fields["url"])
            user_agent = _unquote(fields["ua"])
        except KeyError as exc:
            raise PayloadError(f"HELLO missing field {exc}") from exc
        if not campaign_id or not url:
            raise PayloadError("HELLO with empty campaign or url")
        pixels_in_view = None
        if "pv" in fields:
            if fields["pv"] not in ("0", "1"):
                raise PayloadError(f"bad pv flag: {fields['pv']!r}")
            pixels_in_view = fields["pv"] == "1"
        nonce = _unquote(fields.get("n", ""))
        return HelloMessage(campaign_id=campaign_id, creative_id=creative_id,
                            url=url, user_agent=user_agent,
                            pixels_in_view=pixels_in_view, nonce=nonce)
    if tag == "EVT":
        fields = _fields(parts[1:])
        try:
            kind = InteractionKind(fields["kind"])
        except KeyError:
            raise PayloadError("EVT missing kind") from None
        except ValueError:
            raise PayloadError(f"unknown interaction kind: {fields['kind']!r}") from None
        try:
            offset = float(fields["t"])
        except KeyError:
            raise PayloadError("EVT missing timestamp") from None
        except ValueError:
            raise PayloadError(f"bad EVT timestamp: {fields['t']!r}") from None
        if offset < 0:
            raise PayloadError("negative EVT timestamp")
        return InteractionMessage(kind=kind, offset_seconds=offset)
    raise PayloadError(f"unknown message tag: {tag!r}")
