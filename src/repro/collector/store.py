"""Impression database.

The MySQL stand-in: an append-only store of logged impressions with the
query surface the audit needs (per-campaign slices, distinct publishers,
per-user groupings) and JSONL persistence so datasets survive between
collection and analysis runs.

The store is columnar: every field lives in a typed column —
``array``-module numerics for timestamps/exposure/counts/ids, a
per-store interned string table with ``array('I')`` index columns for
the string fields, and presence/tri-state byte columns for the nullable
enrichment fields.  :class:`ImpressionRecord` is a lightweight view
materialised on demand, ``seal()`` builds per-column indexes so the
audit queries stop rescanning the whole table, and the raw-column
transfer surface (:meth:`ImpressionStore.export_columns` /
:meth:`ImpressionStore.absorb_columns`) is what the shard merge rides
on.  Its outputs are pinned by digests of every export, and the tests
check its queries against plain lists of records.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
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
        # types so a record round-tripped through the columns (which
        # store doubles/ints/bytes) serialises byte-identically to the
        # record it was built from.  Only a value of another type is
        # converted: on its own type the conversion is the identity.  A
        # null numeric field still reaches (and fails) conversion; the
        # value checks follow.
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


def _check_record(fields: Mapping) -> None:
    """Raise ``ValueError`` unless *fields* make a valid record.

    The value check of the :class:`ImpressionRecord` constructor (after
    canonicalising types); the chunked JSONL load makes the same checks
    a column at a time (:func:`_canonical_columns`).  It admits only
    values every column can hold, so no append writes part of a row and
    then fails.  The finite, string and URL-host checks come last, so a
    record that an earlier check rejects keeps its message.
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
    domain_of_url(fields["url"])


#: The record fields' values of a decoded line, in field order.
_record_values = itemgetter(*_FIELD_SPECS)

#: Per field, in field order, the value types a canonical dump line can
#: hold there: the declared type, or it and ``None`` where it is optional.
_FIELD_TYPES = tuple(
    {"int": frozenset({int}), "float": frozenset({float}),
     "bool": frozenset({bool}), "str": frozenset({str}),
     "Optional[int]": frozenset({int, type(None)}),
     "Optional[bool]": frozenset({bool, type(None)})}[field.type]
    for field in _FIELD_SPECS.values())
#: Most lines :meth:`ImpressionStore.load_jsonl` decodes before it checks
#: and appends them as columns; a longer chunk holds more decoded lines
#: at once for little more speed.
_LOAD_CHUNK = 64


class _ColumnData:
    """The typed column set behind an :class:`ImpressionStore`.

    One instance owns the interned string table shared by every string
    column, the numeric ``array`` columns, and the presence/tri-state
    byte columns for the nullable fields.  It is also the unit that
    crosses process boundaries: :meth:`payload` flattens it to a plain
    picklable tuple and :meth:`absorb` appends one.  The interning dict
    is dropped when the store seals, since nothing interns after that.
    """

    __slots__ = (
        "strings", "_string_index", "ids", "timestamp", "exposure",
        "mouse_moves", "clicks", "truncated", "pixels", "campaign",
        "creative", "url", "domain", "ua", "ip", "ip_token", "provider",
        "country", "dc_stage", "rank_present", "rank", "is_dc",
    )

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._string_index: dict[str, int] | None = {}
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
        intern = self.intern
        tri = self._tri
        rank = record.global_rank
        self.ids.append(record.record_id)
        self.timestamp.append(record.timestamp)
        self.exposure.append(record.exposure_seconds)
        self.mouse_moves.append(record.mouse_moves)
        self.clicks.append(record.clicks)
        self.truncated.append(record.truncated)
        self.pixels.append(tri(record.pixels_in_view))
        self.campaign.append(intern(record.campaign_id))
        self.creative.append(intern(record.creative_id))
        self.url.append(intern(record.url))
        self.domain.append(intern(record.domain))
        self.ua.append(intern(record.user_agent))
        self.ip.append(intern(record.ip))
        self.ip_token.append(intern(record.ip_token))
        self.provider.append(intern(record.provider))
        self.country.append(intern(record.country))
        self.dc_stage.append(intern(record.dc_stage))
        self.rank_present.append(0 if rank is None else 1)
        self.rank.append(rank or 0)
        self.is_dc.append(tri(record.is_datacenter))

    def append_columns(self, columns: list[tuple],
                       domain_of: Mapping[str, str]) -> None:
        """Append checked canonical rows given as field columns, in field
        order, and the domain of each of their URLs.  Strings are interned
        in the row-major order :meth:`append_record` uses."""
        (ids, campaign, creative, url, ua, ip, timestamp, exposure,
         mouse_moves, clicks, truncated, pixels, ip_token, provider,
         country, rank, is_dc, dc_stage) = columns
        domain = [domain_of[text] for text in url]
        strings = self.strings
        index = self._string_index
        for text in dict.fromkeys(chain.from_iterable(zip(
                campaign, creative, url, domain, ua, ip, ip_token, provider,
                country, dc_stage))):
            if text not in index:
                index[text] = len(strings)
                strings.append(text)
        code = index.__getitem__
        self.ids.extend(ids)
        self.timestamp.extend(timestamp)
        self.exposure.extend(exposure)
        self.mouse_moves.extend(mouse_moves)
        self.clicks.extend(clicks)
        self.truncated.extend(truncated)
        self.pixels.extend([_TRI_NONE if value is None else value
                            for value in pixels])
        for column, texts in (
                (self.campaign, campaign), (self.creative, creative),
                (self.url, url), (self.domain, domain), (self.ua, ua),
                (self.ip, ip), (self.ip_token, ip_token),
                (self.provider, provider), (self.country, country),
                (self.dc_stage, dc_stage)):
            column.extend(map(code, texts))
        self.rank_present.extend([value is not None for value in rank])
        self.rank.extend([value or 0 for value in rank])
        self.is_dc.extend([_TRI_NONE if value is None else value
                           for value in is_dc])

    def record(self, row: int) -> ImpressionRecord:
        return ImpressionRecord(**self.row_dict(row))

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

    def absorb(self, payload: tuple, first_id: int) -> int:
        """Bulk-append *payload*'s rows, re-identified from *first_id*.

        String indexes are remapped through this table's interner; the
        numeric columns extend wholesale.  Returns the row count added.
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


def _canonical_columns(lines: list[str], last_id: int
                       ) -> Optional[tuple[list[tuple], dict[str, str]]]:
    """The field columns of *lines* and the domain of each URL, or None
    unless every line is a canonical record line that passes
    :func:`_check_record` and the ids increase from past *last_id*.

    The checks are :func:`_check_record`'s and the load's id-order
    check, made a column at a time; a sum is finite only when every
    value is.  None sends the lines through the per-line path, which
    names the first bad line.
    """
    rows = []
    for line in lines:
        # Each decoded dict goes as soon as its values are taken: a chunk
        # holds its lines and values but not 64 dicts at once.
        try:
            data, end = _raw_decode(line)
        except (json.JSONDecodeError, RecursionError):
            return None
        if end != len(line) or type(data) is not dict \
                or len(data) != len(_RECORD_FIELDS):
            return None
        try:
            rows.append(_record_values(data))
        except KeyError:    # as many keys, but not the record's
            return None
    columns = list(zip(*rows))
    if any(not set(map(type, column)) <= types
           for column, types in zip(columns, _FIELD_TYPES)):
        return None
    (ids, campaign, _, url, _, ip, timestamp, exposure, mouse_moves,
     clicks, _, _, ip_token, _, _, rank, _, _) = columns
    ranks = [value for value in rank if value is not None]
    if not (last_id < ids[0] and ids[-1] < _INT64_LIMIT
            and all(map(int.__lt__, ids, ids[1:]))
            and "" not in campaign and "" not in url
            # "" is the least string: both are empty where max(...) is.
            and "" not in map(max, ip, ip_token)
            and min(exposure) >= 0 and min(mouse_moves) >= 0
            and min(clicks) >= 0 and max(mouse_moves) < _COUNT_LIMIT
            and max(clicks) < _COUNT_LIMIT
            and -_INT64_LIMIT <= min(ranks, default=0)
            and max(ranks, default=0) < _INT64_LIMIT
            and isfinite(sum(timestamp)) and isfinite(sum(exposure))):
        return None
    try:
        domain_of = {text: domain_of_url(text)
                     for text in dict.fromkeys(url)}
    except ValueError:
        return None
    return columns, domain_of


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

    Every field lives in a typed column (:class:`_ColumnData`), so
    :class:`ImpressionRecord` is a view materialised on demand: callers
    that want rows still get rows, while the bulk surfaces (``select``,
    persistence, the raw-column transfer, enrichment) read and write the
    columns directly.  ``seal()`` builds the per-column indexes the audit
    queries are served from.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self._next_id = 1
        self._sealed = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._appends = metrics.counter("store.appends")
        # store.replaces counts in-place enrichment writes; store.sealed
        # reads 1 once the store is frozen against writes.
        self._replaces = metrics.counter("store.replaces")
        self._sealed_gauge = metrics.gauge("store.sealed")
        self._data = _ColumnData()
        # seal()-built indexes: campaign id -> row positions / domain
        # sets, plus each row's user key, one string per user.
        self._campaign_rows: dict[str, array] | None = None
        self._campaign_domains: dict[str, set[str]] | None = None
        self._all_domains: set[str] | None = None
        self._user_keys: list[str] | None = None
        self._user_of_row: array | None = None

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[ImpressionRecord]:
        record = self._data.record
        return (record(row) for row in range(len(self._data)))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def sealed(self) -> bool:
        """True once the store has been frozen against mutation."""
        return self._sealed

    def seal(self) -> "ImpressionStore":
        """Freeze the store: any later write raises.

        The experiment runner seals its dataset after enrichment, so no
        caller of a finished result can change what the audits read.  The
        query indexes are built here.  Returns self for chaining.
        """
        if not self._sealed:
            self._build_indexes()
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
        self._data.append_record(record)
        self._next_id += 1
        self._appends.inc()
        self.tracer.event("store.commit", at=self.tracer.now,
                          record=record.record_id,
                          campaign=record.campaign_id)

    def absorb_columns(self, payload: tuple) -> int:
        """Bulk-append a raw-column payload under freshly allocated ids.

        The shard merge path: per-shard stores export their columns once
        (:meth:`export_columns`) and the merged store folds them in
        directly — no unpack-to-records-repack round trip.  Records are
        appended in payload order; the appends counter advances once for
        the whole batch, and a single summarising ``store.extend`` trace
        event stands in for the per-record ``store.commit`` stream.
        Returns the number of records added.
        """
        self._check_mutable()
        first_id = self._next_id
        added = self._data.absorb(payload, first_id)
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
        return self._data.payload()

    # ------------------------------------------------------------------ #
    # enrichment surface
    # ------------------------------------------------------------------ #

    def pending_enrichment(self) -> Iterator[tuple]:
        """Yield ``(index, ip, domain)`` for every record whose enrichment
        columns are still empty (``ip_token`` unset), in row order — the
        streaming input of
        :meth:`repro.collector.enrich.Enricher.enrich_store`."""
        data = self._data
        strings = data.strings
        for row, token in enumerate(data.ip_token):
            if not strings[token]:
                yield row, strings[data.ip[row]], strings[data.domain[row]]

    def enrich_at(self, index: int, *, ip_token: str, provider: str,
                  country: str, global_rank: Optional[int],
                  is_datacenter: Optional[bool], dc_stage: str) -> None:
        """Write one record's enrichment columns in place (and clear the
        raw IP), without materialising the record."""
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

    # ------------------------------------------------------------------ #
    # seal-time indexes
    # ------------------------------------------------------------------ #

    def _build_indexes(self) -> None:
        campaign_rows: dict[int, array] = {}
        campaign_domains: dict[int, set[str]] = {}
        all_domains: set[str] = set()
        users: dict[str, int] = {}
        user_of_row = array("I")
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
            user_of_row.append(users.setdefault(user_key, len(users)))
        strings = self._data.strings
        self._campaign_rows = {strings[index]: rows
                               for index, rows in campaign_rows.items()}
        self._campaign_domains = {strings[index]: domains
                                  for index, domains
                                  in campaign_domains.items()}
        self._all_domains = all_domains
        # Keyed by campaign id, the indexes need no interning dict.
        self._data._string_index = None
        self._user_keys = list(users)
        self._user_of_row = user_of_row

    def _rows_for(self, campaign_id: str) -> "array | range":
        """Row positions of one campaign: index lookup once sealed, a
        single column scan before."""
        if self._campaign_rows is not None:
            return self._campaign_rows.get(campaign_id, array("I"))
        index = self._data._string_index.get(campaign_id)
        if index is None:
            return array("I")
        column = self._data.campaign
        return array("I", (row for row, value in enumerate(column)
                           if value == index))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def campaigns(self) -> list[str]:
        """Distinct campaign ids, in first-seen order."""
        if self._campaign_rows is not None:
            return list(self._campaign_rows)
        strings = self._data.strings
        return [strings[index]
                for index in dict.fromkeys(self._data.campaign)]

    def by_campaign(self, campaign_id: str) -> list[ImpressionRecord]:
        """All records logged for one campaign."""
        return [self._data.record(row) for row in self._rows_for(campaign_id)]

    def by_id(self, record_id: int) -> Optional[ImpressionRecord]:
        """The record with one id, or None.  Bisects the increasing id
        column, so the gapped ids of a loaded dump are found too."""
        ids = self._data.ids
        row = bisect_left(ids, record_id)
        if row < len(ids) and ids[row] == record_id:
            return self._data.record(row)
        return None

    def count_for(self, campaign_id: str) -> int:
        """Number of records logged for one campaign."""
        return len(self._rows_for(campaign_id))

    def distinct_domains(self, campaign_id: Optional[str] = None) -> set[str]:
        """Publisher domains observed (optionally for one campaign)."""
        if campaign_id is None:
            if self._all_domains is not None:
                return set(self._all_domains)
            strings = self._data.strings
            return {strings[index] for index in self._data.domain}
        if self._campaign_domains is not None:
            return set(self._campaign_domains.get(campaign_id, ()))
        strings = self._data.strings
        domain = self._data.domain
        return {strings[domain[row]] for row in self._rows_for(campaign_id)}

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
        if name == "user_key" and self._user_of_row is not None:
            # Sealed: the seal-time strings, one object per user.
            keys, users = self._user_keys, self._user_of_row
            if rows is None:
                return [keys[user] for user in users]
            return [keys[users[row]] for row in rows]
        if name == "user_key":
            return [f"{token or ip}\x1f{ua}" for token, ip, ua
                    in zip(take("ip_token", strings), take("ip", strings),
                           take("ua", strings))]
        raise ValueError(f"unknown select field {name!r}")

    def select(self, campaign_id: Optional[str], *fields: str) -> list[tuple]:
        """Project *fields* for every record (of one campaign, or all).

        Accepts any :class:`ImpressionRecord` field name plus the derived
        ``domain``, ``user_key`` and ``identity`` (``ip_token or ip``)
        columns; returns one tuple per record in row order.  Each field is
        built once as a whole column over the row set, so the audits'
        bulk reads never materialise record views.
        """
        rows = None if campaign_id is None else self._rows_for(campaign_id)
        columns = [self._column(name, rows) for name in fields]
        if not columns:
            return [()] * (len(self._data) if rows is None else len(rows))
        return list(zip(*columns))

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def _iter_jsonl_lines(self) -> Iterator[str]:
        row_dict = self._data.row_dict
        return (json.dumps(row_dict(row), sort_keys=True, allow_nan=False)
                for row in range(len(self._data)))

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
        messages name ``source:line_number`` identically for both.  Lines
        go in chunks of at most ``_LOAD_CHUNK``: a chunk of canonical,
        valid lines (every chunk of a dump) is checked and appended a
        column at a time, and any other chunk line by line.  The appends
        counter advances once for the whole batch, so a loaded store
        reports how many records it holds instead of zero.
        """
        last_id = 0
        chunk: list[tuple[int, str]] = []
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if line:
                chunk.append((line_number, line))
            if chunk and line_number % _LOAD_CHUNK == 0:
                last_id = self._load_chunk(chunk, source, last_id)
                chunk = []
        if chunk:
            last_id = self._load_chunk(chunk, source, last_id)
        self._next_id = last_id + 1
        if len(self._data):
            self._appends.inc(len(self._data))

    def _load_chunk(self, chunk: list[tuple[int, str]], source: str,
                    last_id: int) -> int:
        """Append one chunk of numbered, stripped, non-empty lines after
        record *last_id*; return the last record id appended."""
        found = _canonical_columns([line for _, line in chunk], last_id)
        if found is not None:
            self._data.append_columns(*found)
            return found[0][0][-1]
        # Any other chunk: the record constructor canonicalises or rejects
        # each line, and the first bad line is the one named.
        for line_number, line in chunk:
            try:
                record = ImpressionRecord(**_decode_line(line))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{source}:{line_number}: bad record: {exc}") from exc
            record_id = record.record_id
            if record_id == last_id:
                raise ValueError(
                    f"{source}:{line_number}: duplicate record id "
                    f"{record_id}")
            if record_id < last_id:
                raise ValueError(
                    f"{source}:{line_number}: record ids must be strictly "
                    f"increasing ({record_id} after {last_id})")
            self._data.append_record(record)
            last_id = record_id
        return last_id

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
