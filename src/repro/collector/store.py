"""Impression database.

The MySQL stand-in: an append-only store of logged impressions with the
query surface the audit needs (per-campaign slices, distinct publishers,
per-user groupings) and JSONL persistence so datasets survive between
collection and analysis runs.

Two interchangeable backings implement the store:

* :class:`_ColumnarStore` (the default) keeps every field in a typed
  column — ``array``-module numerics for timestamps/exposure/counts/ids,
  a per-store interned string table with ``array('I')`` index columns
  for the string fields, and presence/tri-state byte columns for the
  nullable enrichment fields.  ``ImpressionRecord`` becomes a lightweight
  view materialised on demand, and ``seal()`` builds per-column indexes
  so the audit queries stop rescanning the whole table.
* :class:`_RowStore` (in reference mode) retains the
  original list-of-frozen-dataclasses layout and full-scan queries — the
  reference implementation the equivalence tests pin the columnar
  backend against, byte for byte.

The backend is chosen at construction time from
:mod:`repro.util.hotpath`; both expose the identical API, including the
raw-column transfer surface (:meth:`ImpressionStore.export_columns` /
:meth:`ImpressionStore.absorb_columns`) the shard merge rides on.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass, replace
from itertools import product
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util import hotpath
from repro.web.publisher import domain_of_url

#: Version tag of the raw-column payload produced by
#: :meth:`ImpressionStore.export_columns`; absorb refuses anything else.
STORE_COLUMNS_VERSION = 1

#: Tri-state byte encoding for Optional[bool] columns.
_TRI_NONE = 2
#: Decoding of the bool and tri-state byte columns, by byte value.
_TRI_VALUES = (False, True, None)

#: ``select`` fields read straight from a numeric column, by attribute.
_NUMERIC_FIELDS = {
    "record_id": "ids", "timestamp": "timestamp",
    "exposure_seconds": "exposure", "mouse_moves": "mouse_moves",
    "clicks": "clicks",
}
#: ``select`` fields read through the string table.
_STRING_FIELDS = {
    "campaign_id": "campaign", "creative_id": "creative", "url": "url",
    "domain": "domain", "user_agent": "ua", "ip": "ip",
    "ip_token": "ip_token", "provider": "provider", "country": "country",
    "dc_stage": "dc_stage",
}
#: ``select`` fields decoded from a bool or tri-state byte column.
_FLAG_FIELDS = {
    "truncated": "truncated", "pixels_in_view": "pixels",
    "is_datacenter": "is_dc",
}


class StoreSealedError(RuntimeError):
    """Raised on any attempt to mutate a sealed :class:`ImpressionStore`."""


@dataclass(frozen=True)
class ImpressionRecord:
    """One logged ad impression, as the collector stores it.

    Identity/meta fields before enrichment hold the connection facts
    (raw IP, server timestamp); enrichment fills the IP-derived columns and
    *replaces the raw IP with its anonymised token* (``ip`` becomes empty,
    ``ip_token`` non-empty) — the ordering §3/footnote 1 of the paper
    prescribes.
    """

    record_id: int
    campaign_id: str
    creative_id: str
    url: str
    user_agent: str
    ip: str
    timestamp: float
    exposure_seconds: float
    mouse_moves: int = 0
    clicks: int = 0
    truncated: bool = False
    #: SafeFrame-measured pixel visibility; None when unmeasurable (S3.1).
    pixels_in_view: Optional[bool] = None
    # enrichment columns
    ip_token: str = ""
    provider: str = ""
    country: str = ""
    global_rank: Optional[int] = None
    is_datacenter: Optional[bool] = None
    dc_stage: str = ""

    def __post_init__(self) -> None:
        # Canonicalise the numeric/boolean fields to their declared JSON
        # types so a record round-tripped through the columnar backing
        # (which stores doubles/ints/bytes) serialises byte-identically
        # to one held as a row.  Only a value of another type is
        # converted: on its own type the conversion is the identity.  A
        # null numeric field still reaches (and fails) conversion; the
        # value checks the direct load path shares follow.
        setattr_ = object.__setattr__
        try:
            if type(self.record_id) is not int:
                setattr_(self, "record_id", int(self.record_id))
            if type(self.timestamp) is not float:
                setattr_(self, "timestamp", float(self.timestamp))
            if type(self.exposure_seconds) is not float:
                setattr_(self, "exposure_seconds", float(self.exposure_seconds))
            if type(self.mouse_moves) is not int:
                setattr_(self, "mouse_moves", int(self.mouse_moves))
            if type(self.clicks) is not int:
                setattr_(self, "clicks", int(self.clicks))
            if type(self.truncated) is not bool:
                setattr_(self, "truncated", bool(self.truncated))
            pixels, rank, is_dc = (self.pixels_in_view, self.global_rank,
                                   self.is_datacenter)
            if pixels is not None and type(pixels) is not bool:
                setattr_(self, "pixels_in_view", bool(pixels))
            if rank is not None and type(rank) is not int:
                setattr_(self, "global_rank", int(rank))
            if is_dc is not None and type(is_dc) is not bool:
                setattr_(self, "is_datacenter", bool(is_dc))
        except OverflowError as exc:
            # An infinite float in an int field, or an int too large for
            # a float field: a bad value, refused like any other.
            raise ValueError(str(exc)) from exc
        _check_record(vars(self))

    @property
    def domain(self) -> str:
        """Publisher domain extracted from the reported URL."""
        return domain_of_url(self.url)

    @property
    def user_key(self) -> str:
        """The audit's user identity: IP ⊕ User-Agent.

        Works both before and after anonymisation because the IP token is
        a stable function of the raw IP.
        """
        return f"{self.ip_token or self.ip}\x1f{self.user_agent}"

    @property
    def viewable_upper_bound(self) -> bool:
        """Exposed ≥ 1 s — the auditor's measurable viewability bound."""
        return self.exposure_seconds >= 1.0


#: Field name -> dataclass field; each ``.type`` is the annotation text,
#: since this module postpones annotation evaluation.
_FIELD_SPECS = ImpressionRecord.__dataclass_fields__
_RECORD_FIELDS = frozenset(_FIELD_SPECS)
#: The record's string fields, which hold text and nothing else.
_TEXT_FIELDS = tuple(name for name, field in _FIELD_SPECS.items()
                     if field.type == "str")
#: Exclusive bounds of the unsigned 32-bit count columns and the signed
#: 64-bit id and rank columns: a value past them cannot be stored.
_COUNT_LIMIT = 1 << 32
_INT64_LIMIT = 1 << 63


def _check_record(fields: Mapping) -> str:
    """Raise ``ValueError`` unless *fields* make a valid record; return
    the record's publisher domain.

    The one value check behind both ways a record enters a store: the
    :class:`ImpressionRecord` constructor (after canonicalising types)
    and the direct JSONL load path.  It admits only values every column
    can hold, so no backing appends part of a row and then fails.  The
    finite, string and URL-host checks come last, so a record that an
    earlier check rejects keeps its message.
    """
    record_id = fields["record_id"]
    if record_id < 1:
        raise ValueError("record_id must be positive")
    if record_id >= _INT64_LIMIT:
        raise ValueError("record_id must be below 2**63")
    if not fields["campaign_id"]:
        raise ValueError("campaign_id must be non-empty")
    if not fields["url"]:
        raise ValueError("url must be non-empty")
    if not fields["ip"] and not fields["ip_token"]:
        raise ValueError("record needs a raw IP or an anonymised token")
    exposure = fields["exposure_seconds"]
    if exposure < 0:
        raise ValueError("exposure_seconds must be non-negative")
    mouse_moves, clicks = fields["mouse_moves"], fields["clicks"]
    if mouse_moves < 0 or clicks < 0:
        raise ValueError("interaction counts must be non-negative")
    if mouse_moves >= _COUNT_LIMIT or clicks >= _COUNT_LIMIT:
        raise ValueError("interaction counts must be below 2**32")
    rank = fields["global_rank"]
    if rank is not None and not -_INT64_LIMIT <= rank < _INT64_LIMIT:
        raise ValueError("global_rank must fit in 64 bits")
    if not isfinite(fields["timestamp"]):
        raise ValueError("timestamp must be finite")
    if not isfinite(exposure):
        raise ValueError("exposure_seconds must be finite")
    for name in _TEXT_FIELDS:
        if not isinstance(fields[name], str):
            raise ValueError(f"{name} must be a string")
    return domain_of_url(fields["url"])


#: The record fields' values of a decoded line, in field order.
_record_values = itemgetter(*_FIELD_SPECS)

#: Every field-order tuple of value types a canonical dump line can
#: hold: each field's declared type, or ``None`` where it is optional.
_CANONICAL_TYPES = frozenset(product(*(
    {"int": (int,), "float": (float,), "bool": (bool,), "str": (str,),
     "Optional[int]": (int, type(None)),
     "Optional[bool]": (bool, type(None))}[field.type]
    for field in _FIELD_SPECS.values())))


#: Derived logical fields ``select()`` accepts besides the record fields.
_ROW_GETTERS: dict[str, Callable[[ImpressionRecord], object]] = {
    "domain": lambda record: record.domain,
    "user_key": lambda record: record.user_key,
    "identity": lambda record: record.ip_token or record.ip,
}


def _row_getter(name: str) -> Callable[[ImpressionRecord], object]:
    getter = _ROW_GETTERS.get(name)
    if getter is not None:
        return getter
    if name not in _RECORD_FIELDS:
        raise ValueError(f"unknown select field {name!r}")
    return lambda record, _name=name: getattr(record, _name)


class _ColumnData:
    """The typed column set behind a columnar store.

    One instance owns the interned string table shared by every string
    column, the numeric ``array`` columns, and the presence/tri-state
    byte columns for the nullable fields.  It is also the unit that
    crosses process boundaries: :meth:`payload` flattens it to a plain
    picklable tuple and :meth:`from_payload` rebuilds it.
    """

    __slots__ = (
        "strings", "_string_index", "ids", "timestamp", "exposure",
        "mouse_moves", "clicks", "truncated", "pixels", "campaign",
        "creative", "url", "domain", "ua", "ip", "ip_token", "provider",
        "country", "dc_stage", "rank_present", "rank", "is_dc",
    )

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._string_index: dict[str, int] = {}
        self.ids = array("q")
        self.timestamp = array("d")
        self.exposure = array("d")
        self.mouse_moves = array("I")
        self.clicks = array("I")
        self.truncated = bytearray()
        self.pixels = bytearray()        # 0/1 bool, 2 encodes None
        self.campaign = array("I")
        self.creative = array("I")
        self.url = array("I")
        self.domain = array("I")         # derived from url at append time
        self.ua = array("I")
        self.ip = array("I")
        self.ip_token = array("I")
        self.provider = array("I")
        self.country = array("I")
        self.dc_stage = array("I")
        self.rank_present = bytearray()  # 0 encodes global_rank None
        self.rank = array("q")
        self.is_dc = bytearray()         # 0/1 bool, 2 encodes None

    def __len__(self) -> int:
        return len(self.ids)

    def intern(self, text: str) -> int:
        index = self._string_index.get(text)
        if index is None:
            index = len(self.strings)
            self._string_index[text] = index
            self.strings.append(text)
        return index

    @staticmethod
    def _tri(value: Optional[bool]) -> int:
        return _TRI_NONE if value is None else int(value)

    def append_record(self, record: ImpressionRecord) -> None:
        self.append_fields(vars(record), record.domain)

    def append_fields(self, fields: Mapping, domain: str) -> None:
        """Append one row from a valid record's field mapping of canonical
        types (``vars(record)``, or a canonical decoded dump line) and the
        domain of its URL."""
        intern = self.intern
        tri = self._tri
        rank = fields["global_rank"]
        self.ids.append(fields["record_id"])
        self.timestamp.append(fields["timestamp"])
        self.exposure.append(fields["exposure_seconds"])
        self.mouse_moves.append(fields["mouse_moves"])
        self.clicks.append(fields["clicks"])
        self.truncated.append(fields["truncated"])
        self.pixels.append(tri(fields["pixels_in_view"]))
        self.campaign.append(intern(fields["campaign_id"]))
        self.creative.append(intern(fields["creative_id"]))
        self.url.append(intern(fields["url"]))
        self.domain.append(intern(domain))
        self.ua.append(intern(fields["user_agent"]))
        self.ip.append(intern(fields["ip"]))
        self.ip_token.append(intern(fields["ip_token"]))
        self.provider.append(intern(fields["provider"]))
        self.country.append(intern(fields["country"]))
        self.dc_stage.append(intern(fields["dc_stage"]))
        self.rank_present.append(0 if rank is None else 1)
        self.rank.append(rank or 0)
        self.is_dc.append(tri(fields["is_datacenter"]))

    def write_record(self, row: int, record: ImpressionRecord) -> None:
        self.ids[row] = record.record_id
        self.timestamp[row] = record.timestamp
        self.exposure[row] = record.exposure_seconds
        self.mouse_moves[row] = record.mouse_moves
        self.clicks[row] = record.clicks
        self.truncated[row] = int(record.truncated)
        self.pixels[row] = self._tri(record.pixels_in_view)
        self.campaign[row] = self.intern(record.campaign_id)
        self.creative[row] = self.intern(record.creative_id)
        self.url[row] = self.intern(record.url)
        self.domain[row] = self.intern(record.domain)
        self.ua[row] = self.intern(record.user_agent)
        self.ip[row] = self.intern(record.ip)
        self.ip_token[row] = self.intern(record.ip_token)
        self.provider[row] = self.intern(record.provider)
        self.country[row] = self.intern(record.country)
        self.dc_stage[row] = self.intern(record.dc_stage)
        self.rank_present[row] = 0 if record.global_rank is None else 1
        self.rank[row] = record.global_rank or 0
        self.is_dc[row] = self._tri(record.is_datacenter)

    def record(self, row: int,
               record_id: Optional[int] = None) -> ImpressionRecord:
        fields = self.row_dict(row)
        if record_id is not None:
            fields["record_id"] = record_id
        return ImpressionRecord(**fields)

    def row_dict(self, row: int) -> dict:
        """The record as the plain dict ``asdict`` would produce."""
        strings = self.strings
        pixels = self.pixels[row]
        is_dc = self.is_dc[row]
        return {
            "record_id": self.ids[row],
            "campaign_id": strings[self.campaign[row]],
            "creative_id": strings[self.creative[row]],
            "url": strings[self.url[row]],
            "user_agent": strings[self.ua[row]],
            "ip": strings[self.ip[row]],
            "timestamp": self.timestamp[row],
            "exposure_seconds": self.exposure[row],
            "mouse_moves": self.mouse_moves[row],
            "clicks": self.clicks[row],
            "truncated": bool(self.truncated[row]),
            "pixels_in_view": None if pixels == _TRI_NONE else bool(pixels),
            "ip_token": strings[self.ip_token[row]],
            "provider": strings[self.provider[row]],
            "country": strings[self.country[row]],
            "global_rank": self.rank[row] if self.rank_present[row] else None,
            "is_datacenter": None if is_dc == _TRI_NONE else bool(is_dc),
            "dc_stage": strings[self.dc_stage[row]],
        }

    def payload(self) -> tuple:
        """Flatten to the picklable raw-column transfer tuple."""
        return (
            STORE_COLUMNS_VERSION, len(self.ids), tuple(self.strings),
            array("q", self.ids), array("d", self.timestamp),
            array("d", self.exposure), array("I", self.mouse_moves),
            array("I", self.clicks), bytes(self.truncated),
            bytes(self.pixels), array("I", self.campaign),
            array("I", self.creative), array("I", self.url),
            array("I", self.domain), array("I", self.ua),
            array("I", self.ip), array("I", self.ip_token),
            array("I", self.provider), array("I", self.country),
            array("I", self.dc_stage), bytes(self.rank_present),
            array("q", self.rank), bytes(self.is_dc),
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "_ColumnData":
        (version, count, strings, ids, timestamp, exposure, mouse_moves,
         clicks, truncated, pixels, campaign, creative, url, domain, ua,
         ip, ip_token, provider, country, dc_stage, rank_present, rank,
         is_dc) = _validated_payload(payload)
        data = cls()
        data.strings = list(strings)
        data._string_index = {text: index
                              for index, text in enumerate(data.strings)}
        data.ids = array("q", ids)
        data.timestamp = array("d", timestamp)
        data.exposure = array("d", exposure)
        data.mouse_moves = array("I", mouse_moves)
        data.clicks = array("I", clicks)
        data.truncated = bytearray(truncated)
        data.pixels = bytearray(pixels)
        data.campaign = array("I", campaign)
        data.creative = array("I", creative)
        data.url = array("I", url)
        data.domain = array("I", domain)
        data.ua = array("I", ua)
        data.ip = array("I", ip)
        data.ip_token = array("I", ip_token)
        data.provider = array("I", provider)
        data.country = array("I", country)
        data.dc_stage = array("I", dc_stage)
        data.rank_present = bytearray(rank_present)
        data.rank = array("q", rank)
        data.is_dc = bytearray(is_dc)
        return data

    def absorb(self, payload: tuple, first_id: int) -> int:
        """Bulk-append *payload*'s rows, re-identified from *first_id*.

        String indexes are remapped through this table's interner; the
        numeric columns extend wholesale.  Returns the row count added —
        the raw-column equivalent of ``extend_reindexed`` without the
        unpack-to-records-repack round trip.
        """
        (version, count, strings, ids, timestamp, exposure, mouse_moves,
         clicks, truncated, pixels, campaign, creative, url, domain, ua,
         ip, ip_token, provider, country, dc_stage, rank_present, rank,
         is_dc) = _validated_payload(payload)
        remap = array("I", (self.intern(text) for text in strings))
        self.ids.extend(range(first_id, first_id + count))
        self.timestamp.extend(timestamp)
        self.exposure.extend(exposure)
        self.mouse_moves.extend(mouse_moves)
        self.clicks.extend(clicks)
        self.truncated.extend(truncated)
        self.pixels.extend(pixels)
        for column, incoming in (
                (self.campaign, campaign), (self.creative, creative),
                (self.url, url), (self.domain, domain), (self.ua, ua),
                (self.ip, ip), (self.ip_token, ip_token),
                (self.provider, provider), (self.country, country),
                (self.dc_stage, dc_stage)):
            column.extend(remap[index] for index in incoming)
        self.rank_present.extend(rank_present)
        self.rank.extend(rank)
        self.is_dc.extend(is_dc)
        return count


_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> object:
    """Decode one stripped JSONL line; a line ``raw_decode`` cannot decode
    whole goes to ``json.loads`` for the standard error text."""
    try:
        data, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):
        data = json.loads(line)
    return data


def _is_canonical(data: object) -> bool:
    """A decoded line holding exactly the record fields, each of the JSON
    type a dump writes for it — a row the columns take as it is."""
    if type(data) is not dict or len(data) != len(_RECORD_FIELDS):
        return False
    try:
        values = _record_values(data)
    except KeyError:        # as many keys, but not the record's
        return False
    # Sized through a list: a resized ``tuple(map(...))`` per line would
    # pile up in CPython's tuple free list and outlive the load.
    return tuple([*map(type, values)]) in _CANONICAL_TYPES


def _validated_payload(payload: tuple) -> tuple:
    if not isinstance(payload, tuple) or len(payload) != 23:
        raise ValueError("malformed store column payload")
    if payload[0] != STORE_COLUMNS_VERSION:
        raise ValueError(
            f"unsupported store column payload version {payload[0]!r} "
            f"(expected {STORE_COLUMNS_VERSION})")
    return payload


class ImpressionStore:
    """Append-only impression table with the audit's query surface.

    Instantiating this class yields the columnar backend, or the
    row-backed reference implementation in reference mode
    (:func:`repro.util.hotpath.reference_hotpaths`) — both behave
    identically; only layout and query cost differ.
    """

    def __new__(cls, *args, **kwargs):
        if cls is ImpressionStore:
            cls = _RowStore if hotpath._REFERENCE else _ColumnarStore
        return object.__new__(cls)

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self._next_id = 1
        self._sealed = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._appends = metrics.counter(
            "store.appends", help="records appended to the impression store")
        self._replaces = metrics.counter(
            "store.replaces", help="in-place record overwrites (enrichment)")
        self._sealed_gauge = metrics.gauge(
            "store.sealed", help="1 once the store is frozen against writes")

    # ------------------------------------------------------------------ #
    # backend primitives (implemented by the two backings)
    # ------------------------------------------------------------------ #

    def _append(self, record: ImpressionRecord) -> None:
        raise NotImplementedError

    def _record_at(self, index: int) -> ImpressionRecord:
        raise NotImplementedError

    def _write_row(self, index: int, record: ImpressionRecord) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[ImpressionRecord]:
        return (self._record_at(index) for index in range(len(self)))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def sealed(self) -> bool:
        """True once the store has been frozen against mutation."""
        return self._sealed

    def seal(self) -> "ImpressionStore":
        """Freeze the store: any later insert/replace raises.

        The experiment runner seals its dataset after enrichment so that a
        memoised result shared between benchmarks cannot be contaminated by
        one caller mutating it.  The columnar backend builds its query
        indexes here.  Returns self for chaining.
        """
        self._sealed = True
        self._sealed_gauge.set(1)
        return self

    def _check_mutable(self) -> None:
        if self._sealed:
            raise StoreSealedError(
                "store is sealed; experiment datasets are immutable once "
                "enriched (copy the records into a fresh store to modify)")

    def next_record_id(self) -> int:
        """Allocate the id for the next inserted record."""
        return self._next_id

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def insert(self, record: ImpressionRecord) -> None:
        """Append one record (ids must be allocated via next_record_id)."""
        self._check_mutable()
        if record.record_id != self._next_id:
            raise ValueError(
                f"expected record_id {self._next_id}, got {record.record_id}")
        self._append(record)
        self._next_id += 1
        self._appends.inc()
        self.tracer.event("store.commit", at=self.tracer.now,
                          record=record.record_id,
                          campaign=record.campaign_id)

    def replace_at(self, index: int, record: ImpressionRecord) -> None:
        """Overwrite a record in place (enrichment uses this)."""
        self._check_mutable()
        self._write_row(index, record)
        self._replaces.inc()

    def extend_reindexed(self, records: "Iterable[ImpressionRecord]") -> int:
        """Append copies of *records* under freshly allocated ids.

        The shard merge used this before the raw-column path
        (:meth:`absorb_columns`) existed; filtered-copy workflows still
        do.  Records are appended in iteration order; the appends counter
        advances once for the whole batch and a single summarising
        ``store.extend`` trace event stands in for the per-record
        ``store.commit`` stream.  Returns the number of records added.
        """
        self._check_mutable()
        first_id = self._next_id
        added = 0
        for record in records:
            if record.record_id != self._next_id:
                record = replace(record, record_id=self._next_id)
            self._append(record)
            self._next_id += 1
            added += 1
        self._note_bulk_append(added, first_id)
        return added

    def absorb_columns(self, payload: tuple) -> int:
        """Bulk-append a raw-column payload under freshly allocated ids.

        The shard merge path: per-shard stores export their columns once
        (:meth:`export_columns`) and the merged store folds them in
        directly — no unpack-to-records-repack round trip.  Same
        re-identification and bulk accounting as
        :meth:`extend_reindexed`.
        """
        self._check_mutable()
        first_id = self._next_id
        added = self._absorb_payload(payload, first_id)
        self._next_id += added
        self._note_bulk_append(added, first_id)
        return added

    def _note_bulk_append(self, added: int, first_id: int) -> None:
        if not added:
            return
        self._appends.inc(added)
        self.tracer.event("store.extend", at=self.tracer.now,
                          records=added, first_record=first_id,
                          last_record=first_id + added - 1)

    def export_columns(self) -> tuple:
        """The store's rows as a raw-column payload (picklable tuple)."""
        raise NotImplementedError

    def _absorb_payload(self, payload: tuple, first_id: int) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # enrichment surface
    # ------------------------------------------------------------------ #

    def pending_enrichment(self) -> Iterator[tuple]:
        """Yield ``(index, record_id, ip, domain, timestamp)`` for every
        record whose enrichment columns are still empty (``ip_token``
        unset), in row order — the streaming input of
        :meth:`repro.collector.enrich.Enricher.enrich_store`."""
        raise NotImplementedError

    def enrich_at(self, index: int, *, ip_token: str, provider: str,
                  country: str, global_rank: Optional[int],
                  is_datacenter: Optional[bool], dc_stage: str) -> None:
        """Write one record's enrichment columns in place (and clear the
        raw IP).  The columnar backend writes columns directly; the
        reference backend rebuilds the frozen record, as the original
        enrichment pass did."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def campaigns(self) -> list[str]:
        """Distinct campaign ids, in first-seen order."""
        raise NotImplementedError

    def by_campaign(self, campaign_id: str) -> list[ImpressionRecord]:
        """All records logged for one campaign."""
        raise NotImplementedError

    def count_for(self, campaign_id: str) -> int:
        """Number of records logged for one campaign."""
        raise NotImplementedError

    def where(self, predicate: Callable[[ImpressionRecord], bool]
              ) -> list[ImpressionRecord]:
        """Generic filtered scan."""
        return [record for record in self if predicate(record)]

    def distinct_domains(self, campaign_id: Optional[str] = None) -> set[str]:
        """Publisher domains observed (optionally for one campaign)."""
        raise NotImplementedError

    def by_user(self, campaign_id: Optional[str] = None
                ) -> dict[str, list[ImpressionRecord]]:
        """Records grouped by (IP, User-Agent) user key."""
        raise NotImplementedError

    def select(self, campaign_id: Optional[str], *fields: str) -> list[tuple]:
        """Project *fields* for every record (of one campaign, or all).

        Accepts any :class:`ImpressionRecord` field name plus the derived
        ``domain``, ``user_key`` and ``identity`` (``ip_token or ip``)
        columns; returns one tuple per record in row order.  The audits'
        bulk reads ride this so the columnar backend can answer them from
        its columns without materialising record views.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def _iter_jsonl_lines(self) -> Iterator[str]:
        raise NotImplementedError

    def dumps_jsonl(self) -> str:
        """Serialise every record as one JSON object per line."""
        return "".join(line + "\n" for line in self._iter_jsonl_lines())

    def dump_jsonl(self, path: str | Path) -> int:
        """Write every record as one JSON object per line; returns count.

        Streams line by line — the dump never builds the whole document
        in memory the way :meth:`dumps_jsonl` must.
        """
        with open(Path(path), "w", encoding="utf-8", newline="") as handle:
            for line in self._iter_jsonl_lines():
                handle.write(line + "\n")
        return len(self)

    def _load_lines(self, lines: Iterable[str], source: str) -> None:
        """Parse JSONL *lines* into this (empty) store.

        Shared by :meth:`loads_jsonl` and :meth:`load_jsonl`; the error
        messages name ``source:line_number`` identically for both.  The
        appends counter advances once for the whole batch, so a loaded
        store reports how many records it holds instead of zero.
        """
        last_id = 0
        added = 0
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record_id, row = self._loaded_row(_decode_line(line))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{source}:{line_number}: bad record: {exc}") from exc
            if record_id == last_id:
                raise ValueError(
                    f"{source}:{line_number}: duplicate record id "
                    f"{record_id}")
            if record_id < last_id:
                raise ValueError(
                    f"{source}:{line_number}: record ids must be strictly "
                    f"increasing ({record_id} after {last_id})")
            self._append_loaded(row)
            last_id = record_id
            added += 1
        self._next_id = last_id + 1
        if added:
            self._appends.inc(added)

    def _loaded_row(self, data: object) -> tuple[int, object]:
        """One decoded dump line, validated: its record id and the row
        :meth:`_append_loaded` takes.  Here that row is the record the
        constructor builds, which canonicalises or rejects the line."""
        record = ImpressionRecord(**data)
        return record.record_id, record

    def _append_loaded(self, row: object) -> None:
        self._append(row)

    @classmethod
    def loads_jsonl(cls, text: str,
                    source: str = "<string>") -> "ImpressionStore":
        """Rebuild a store from :meth:`dumps_jsonl` output.

        Record ids are required to be strictly increasing, not contiguous:
        a dump produced by filtering or merging stores (record ids with
        gaps, first id > 1) reloads cleanly, and the store keeps allocating
        fresh ids from ``max_id + 1``.
        """
        store = cls()
        store._load_lines(text.splitlines(), source)
        return store

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "ImpressionStore":
        """Rebuild a store from :meth:`dump_jsonl` output (see loads_jsonl).

        Streams the file line by line instead of reading the whole dump
        into memory first; error messages are identical to
        :meth:`loads_jsonl` with the path as the source.
        """
        path = Path(path)
        store = cls()
        with open(path, encoding="utf-8") as handle:
            store._load_lines(handle, source=str(path))
        return store


class _RowStore(ImpressionStore):
    """Reference backing: a Python list of frozen record dataclasses.

    Every query is the original full scan; kept so the equivalence tests
    can pin the columnar backend byte for byte.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: "Tracer | None" = None) -> None:
        super().__init__(metrics=metrics, tracer=tracer)
        self._records: list[ImpressionRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ImpressionRecord]:
        return iter(self._records)

    def _append(self, record: ImpressionRecord) -> None:
        self._records.append(record)

    def _record_at(self, index: int) -> ImpressionRecord:
        return self._records[index]

    def _write_row(self, index: int, record: ImpressionRecord) -> None:
        self._records[index] = record

    # -- raw-column transfer ------------------------------------------- #

    def export_columns(self) -> tuple:
        data = _ColumnData()
        for record in self._records:
            data.append_record(record)
        return data.payload()

    def _absorb_payload(self, payload: tuple, first_id: int) -> int:
        data = _ColumnData.from_payload(payload)
        for row in range(len(data)):
            self._records.append(data.record(row, record_id=first_id + row))
        return len(data)

    # -- enrichment ------------------------------------------------------ #

    def pending_enrichment(self) -> Iterator[tuple]:
        for index, record in enumerate(self._records):
            if record.ip_token:
                continue
            yield (index, record.record_id, record.ip, record.domain,
                   record.timestamp)

    def enrich_at(self, index: int, *, ip_token: str, provider: str,
                  country: str, global_rank: Optional[int],
                  is_datacenter: Optional[bool], dc_stage: str) -> None:
        self.replace_at(index, replace(
            self._records[index],
            ip_token=ip_token,
            ip="",
            provider=provider,
            country=country,
            global_rank=global_rank,
            is_datacenter=is_datacenter,
            dc_stage=dc_stage,
        ))

    # -- queries (reference full scans) ---------------------------------- #

    def campaigns(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.campaign_id, None)
        return list(seen)

    def by_campaign(self, campaign_id: str) -> list[ImpressionRecord]:
        return [record for record in self._records
                if record.campaign_id == campaign_id]

    def count_for(self, campaign_id: str) -> int:
        return sum(1 for record in self._records
                   if record.campaign_id == campaign_id)

    def distinct_domains(self, campaign_id: Optional[str] = None) -> set[str]:
        records = self._records if campaign_id is None \
            else self.by_campaign(campaign_id)
        return {record.domain for record in records}

    def by_user(self, campaign_id: Optional[str] = None
                ) -> dict[str, list[ImpressionRecord]]:
        records = self._records if campaign_id is None \
            else self.by_campaign(campaign_id)
        grouped: dict[str, list[ImpressionRecord]] = {}
        for record in records:
            grouped.setdefault(record.user_key, []).append(record)
        return grouped

    def select(self, campaign_id: Optional[str], *fields: str) -> list[tuple]:
        getters = [_row_getter(name) for name in fields]
        records = self._records if campaign_id is None \
            else self.by_campaign(campaign_id)
        return [tuple(getter(record) for getter in getters)
                for record in records]

    # -- persistence ------------------------------------------------------ #

    def _iter_jsonl_lines(self) -> Iterator[str]:
        return (json.dumps(asdict(record), sort_keys=True, allow_nan=False)
                for record in self._records)


class _ColumnarStore(ImpressionStore):
    """Columnar backing: typed ``array`` columns plus a string table.

    Records materialise on demand as :class:`ImpressionRecord` views, so
    callers that want rows still get rows; the bulk surfaces (``select``,
    persistence, the raw-column transfer, enrichment) read and write the
    columns directly.  ``seal()`` builds the per-column indexes the audit
    queries are served from.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: "Tracer | None" = None) -> None:
        super().__init__(metrics=metrics, tracer=tracer)
        self._data = _ColumnData()
        # seal()-built indexes: campaign intern index -> row positions /
        # domain sets, plus the global user-key grouping.
        self._campaign_rows: dict[int, array] | None = None
        self._campaign_domains: dict[int, set[str]] | None = None
        self._all_domains: set[str] | None = None
        self._user_rows: dict[str, array] | None = None

    def __len__(self) -> int:
        return len(self._data)

    def _append(self, record: ImpressionRecord) -> None:
        self._data.append_record(record)

    def _record_at(self, index: int) -> ImpressionRecord:
        return self._data.record(index)

    def _write_row(self, index: int, record: ImpressionRecord) -> None:
        self._data.write_record(index, record)

    def _loaded_row(self, data: object) -> tuple[int, object]:
        # A canonical line (every line a dump writes) is checked and kept
        # as the field mapping the columns append from, with the domain
        # the check derived; any other line takes the constructor path,
        # as on the reference backing.
        if _is_canonical(data):
            domain = _check_record(data)
        else:
            record = ImpressionRecord(**data)
            data, domain = vars(record), record.domain
        return data["record_id"], (data, domain)

    def _append_loaded(self, row: object) -> None:
        self._data.append_fields(*row)

    # -- raw-column transfer ------------------------------------------- #

    def export_columns(self) -> tuple:
        return self._data.payload()

    def _absorb_payload(self, payload: tuple, first_id: int) -> int:
        return self._data.absorb(payload, first_id)

    # -- enrichment ------------------------------------------------------ #

    def pending_enrichment(self) -> Iterator[tuple]:
        data = self._data
        strings = data.strings
        for row, token in enumerate(data.ip_token):
            if strings[token]:
                continue
            yield (row, data.ids[row], strings[data.ip[row]],
                   strings[data.domain[row]], data.timestamp[row])

    def enrich_at(self, index: int, *, ip_token: str, provider: str,
                  country: str, global_rank: Optional[int],
                  is_datacenter: Optional[bool], dc_stage: str) -> None:
        self._check_mutable()
        data = self._data
        data.ip_token[index] = data.intern(ip_token)
        data.ip[index] = data.intern("")
        data.provider[index] = data.intern(provider)
        data.country[index] = data.intern(country)
        data.dc_stage[index] = data.intern(dc_stage)
        data.rank_present[index] = 0 if global_rank is None else 1
        data.rank[index] = global_rank or 0
        data.is_dc[index] = data._tri(is_datacenter)
        self._replaces.inc()

    # -- seal-time indexes ------------------------------------------------ #

    def seal(self) -> "ImpressionStore":
        if not self._sealed:
            self._build_indexes()
        return super().seal()

    def _build_indexes(self) -> None:
        campaign_rows: dict[int, array] = {}
        campaign_domains: dict[int, set[str]] = {}
        all_domains: set[str] = set()
        user_rows: dict[str, array] = {}
        for row, (campaign, domain, user_key) in enumerate(zip(
                self._data.campaign, self._column("domain", None),
                self._column("user_key", None))):
            rows = campaign_rows.get(campaign)
            if rows is None:
                rows = campaign_rows[campaign] = array("I")
                campaign_domains[campaign] = set()
            rows.append(row)
            campaign_domains[campaign].add(domain)
            all_domains.add(domain)
            grouped = user_rows.get(user_key)
            if grouped is None:
                grouped = user_rows[user_key] = array("I")
            grouped.append(row)
        self._campaign_rows = campaign_rows
        self._campaign_domains = campaign_domains
        self._all_domains = all_domains
        self._user_rows = user_rows

    def _rows_for(self, campaign_id: str) -> "array | range":
        """Row positions of one campaign: index lookup once sealed, a
        single column scan before."""
        index = self._data._string_index.get(campaign_id)
        if index is None:
            return array("I")
        if self._campaign_rows is not None:
            return self._campaign_rows.get(index, array("I"))
        column = self._data.campaign
        return array("I", (row for row, value in enumerate(column)
                           if value == index))

    # -- queries ---------------------------------------------------------- #

    def campaigns(self) -> list[str]:
        strings = self._data.strings
        if self._campaign_rows is not None:
            return [strings[index] for index in self._campaign_rows]
        return [strings[index]
                for index in dict.fromkeys(self._data.campaign)]

    def by_campaign(self, campaign_id: str) -> list[ImpressionRecord]:
        return [self._data.record(row) for row in self._rows_for(campaign_id)]

    def count_for(self, campaign_id: str) -> int:
        return len(self._rows_for(campaign_id))

    def distinct_domains(self, campaign_id: Optional[str] = None) -> set[str]:
        if campaign_id is None:
            if self._all_domains is not None:
                return set(self._all_domains)
            strings = self._data.strings
            return {strings[index] for index in self._data.domain}
        if self._campaign_domains is not None:
            index = self._data._string_index.get(campaign_id)
            found = self._campaign_domains.get(index) \
                if index is not None else None
            return set(found) if found is not None else set()
        strings = self._data.strings
        domain = self._data.domain
        return {strings[domain[row]] for row in self._rows_for(campaign_id)}

    def by_user(self, campaign_id: Optional[str] = None
                ) -> dict[str, list[ImpressionRecord]]:
        record = self._data.record
        if campaign_id is None and self._user_rows is not None:
            return {user_key: [record(row) for row in rows]
                    for user_key, rows in self._user_rows.items()}
        rows = range(len(self._data)) if campaign_id is None \
            else self._rows_for(campaign_id)
        grouped: dict[str, list[ImpressionRecord]] = {}
        for row, user_key in zip(rows, self._column("user_key", rows)):
            grouped.setdefault(user_key, []).append(record(row))
        return grouped

    def _column(self, name: str, rows: "array | range | None") -> Iterable:
        """One ``select`` field over *rows* (every row when None), built
        whole in row order."""
        data = self._data
        strings = data.strings

        def take(attribute: str, decode: "list | tuple | None" = None
                 ) -> Iterable:
            # One pass per column: the row subset and the decode through
            # the string table (or a byte lookup) happen together.
            column = getattr(data, attribute)
            if decode is None:
                return column if rows is None \
                    else [column[row] for row in rows]
            if rows is None:
                return [decode[value] for value in column]
            return [decode[column[row]] for row in rows]

        if name in _NUMERIC_FIELDS:
            return take(_NUMERIC_FIELDS[name])
        if name in _STRING_FIELDS:
            return take(_STRING_FIELDS[name], strings)
        if name in _FLAG_FIELDS:
            return take(_FLAG_FIELDS[name], _TRI_VALUES)
        if name == "global_rank":
            return [rank if present else None for rank, present
                    in zip(take("rank"), take("rank_present"))]
        if name == "identity":
            return [token or ip for token, ip
                    in zip(take("ip_token", strings), take("ip", strings))]
        if name == "user_key":
            return [f"{token or ip}\x1f{ua}" for token, ip, ua
                    in zip(take("ip_token", strings), take("ip", strings),
                           take("ua", strings))]
        raise ValueError(f"unknown select field {name!r}")

    def select(self, campaign_id: Optional[str], *fields: str) -> list[tuple]:
        rows = None if campaign_id is None else self._rows_for(campaign_id)
        columns = [self._column(name, rows) for name in fields]
        if not columns:
            return [()] * (len(self._data) if rows is None else len(rows))
        return list(zip(*columns))

    # -- persistence ------------------------------------------------------ #

    def _iter_jsonl_lines(self) -> Iterator[str]:
        row_dict = self._data.row_dict
        return (json.dumps(row_dict(row), sort_keys=True, allow_nan=False)
                for row in range(len(self._data)))
