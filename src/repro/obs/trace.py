"""Deterministic impression-lifecycle tracing.

The paper's methodology is *following one impression end to end*: the ad
network decides to serve, the creative renders, the beacon phones home
over WebSocket, the collector commits a row, and the audits pass verdicts
on that row.  :mod:`repro.obs.metrics` made each stage countable; this
module makes each impression *narratable* — every delivered impression
owns a trace of typed spans (``auction.decide``, ``pacing.gate``,
``creative.serve``, ``beacon.render``, ``transport.connect``,
``ws.frame``, ``collector.ingest``, ``enrich.geo``, ``audit.classify``)
that reconstructs exactly which chain of events produced (or failed to
produce) its collector record.

The same two rules that keep the metrics reproducible apply here:

* **Determinism.**  A trace id is a pure function of (seed, shard scope,
  impression id) via :func:`repro.util.hashing.stable_hash` — never of
  wall-clock entropy — and every span instant comes from the simulated
  clock domain (pageview timestamps, server-side connection instants).
  Wall-domain timings stay in :mod:`repro.obs.timing`, outside this
  module entirely.

* **Canonical merge.**  Each shard keeps its traces in a bounded
  head/tail-sampled :class:`FlightRecorder` whose retention is a pure
  function of the shard's own commit sequence; the experiment merge
  appends the per-shard trace sets to one :class:`TraceArchive` in
  canonical plan order, exactly like
  :class:`~repro.obs.metrics.MetricsSnapshot`.  Serial and ``--jobs N``
  runs therefore retain the identical trace set.

``enrich.geo`` is never recorded: enrichment runs after the merge and
writes its verdicts into the store, so the archive joins each read
trace with its record's row instead.

Depends only on the standard library and ``repro.util.hashing``; every
other package may import ``repro.obs.trace`` without creating a cycle.
"""

from __future__ import annotations

import marshal
import zlib
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.util.hashing import stable_hash

#: Default flight-recorder bounds: per shard, the first ``head`` traces
#: are pinned and the last ``tail`` ride a ring buffer; whatever falls in
#: between at higher scales is dropped (and counted).
DEFAULT_HEAD_TRACES = 2048
DEFAULT_TAIL_TRACES = 2048


class TraceError(RuntimeError):
    """Misuse of the tracing API (unbalanced spans, duplicate starts)."""


def trace_id_for(seed: int, scope: str, impression_id: int) -> str:
    """Stable 16-hex trace id for one impression.

    A pure function of the experiment seed, the shard's scope string and
    the impression's shard-local id — the same impression gets the same
    trace id in every run at that seed, serial or parallel, which is what
    lets ``python -m repro explain`` find it again.
    """
    return format(stable_hash(str(seed), scope, str(impression_id),
                              bits=64), "016x")


def _attr_str(value: object) -> str:
    """Deterministic string form for span attribute values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


#: Attribute value types a packed trace keeps raw, stringified on read.
_RAW_TYPES = frozenset({str, int, float, bool, type(None)})


def _packable(attrs: dict[str, object]) -> dict[str, object]:
    """Stringify, in place, the values of *attrs* that are not raw:
    ``marshal`` refuses subclasses such as ``IntEnum``, and a container's
    string form could drift after commit."""
    for key, value in attrs.items():
        if type(value) not in _RAW_TYPES:
            attrs[key] = _attr_str(value)
    return attrs


def _freeze_attrs(attrs, table: Optional[dict] = None
                  ) -> tuple[tuple[str, str], ...]:
    """Stringify *attrs*; equal keys, values, pairs and tuples are one object.

    *attrs* is a dict or an iterable of ``(key, value)`` pairs.  *table*
    (fresh when None) is keyed on the frozen strings, never on raw
    values: ``True`` and ``1`` hash alike but freeze to ``true`` and ``1``.
    """
    share = (table if table is not None else {}).setdefault
    pairs = []
    for key, value in attrs.items() if isinstance(attrs, dict) else attrs:
        text = _attr_str(value)
        pair = (share(key, key), share(text, text))
        pairs.append(share(pair, pair))
    frozen = tuple(pairs)
    return share(frozen, frozen)


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One typed span of a trace (an instant when ``start == end``).

    Span ids are assigned in begin order within their trace, so sorting
    by ``span_id`` recovers document order; ``parent_id`` is ``None``
    only for the root span.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TraceError(
                f"span {self.name} ends before it starts "
                f"({self.end} < {self.start})")

    def __reduce__(self):
        # Load and copy through __init__: checked, with no fields() walk.
        return (SpanRecord, (self.span_id, self.parent_id, self.name,
                             self.start, self.end, self.attrs))

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str) -> Optional[str]:
        """Value of one attribute (None when absent)."""
        for name, value in self.attrs:
            if name == key:
                return value
        return None


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One impression's complete, immutable span tree.

    ``impression_id`` and ``record_id`` are shard-local at commit time;
    the experiment merge shifts both by the deliveries and records of the
    shards folded before it, so a merged trace is addressable by the ids
    the auditor actually sees.
    """

    trace_id: str
    shard_scope: str
    impression_id: int
    campaign_id: str
    record_id: Optional[int] = None
    spans: tuple[SpanRecord, ...] = ()

    def __reduce__(self):
        return (TraceRecord, (self.trace_id, self.shard_scope,
                              self.impression_id, self.campaign_id,
                              self.record_id, self.spans))

    @property
    def root(self) -> SpanRecord:
        if not self.spans:
            raise TraceError(f"trace {self.trace_id} has no spans")
        return self.spans[0]

    def children_of(self, span_id: Optional[int]) -> list[SpanRecord]:
        """Direct children of one span, in document order."""
        return [span for span in self.spans if span.parent_id == span_id]

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [span for span in self.spans if span.name == name]


class Tracer:
    """Builds one pending trace at a time and commits it to a recorder.

    The shard loop drives the lifecycle: :meth:`start` opens the pending
    trace at the pageview, instrumented components add spans/events while
    the impression flows through them, and the loop either
    :meth:`commit`\\ s (impression delivered) or :meth:`abandon`\\ s
    (pageview produced nothing).  Every span method is a silent no-op
    while no trace is pending, so instrumented components behave
    identically when constructed standalone.

    Most pageviews are abandoned, so a pending span costs one list: raw
    ``[span_id, parent_id, name, start, end, attrs]`` with the caller's
    attribute dict unfrozen and ``end`` None while the span is open.
    Entries are appended in begin order, so ``span_id`` is the list
    index; the open-span stack holds the same entries.  :meth:`abandon`
    only clears the pending flag.

    :meth:`commit` builds no :class:`SpanRecord`: it hands the recorder
    the raw span rows as one ``marshal`` blob, and a :class:`TraceArchive`
    turns them into records only when they are read.
    """

    def __init__(self, recorder: "FlightRecorder | None" = None,
                 seed: int = 0, scope: str = "") -> None:
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.seed = seed
        self.scope = scope
        self._spans: list[list] = []
        self._stack: list[list] = []
        self._active = False
        self._now = 0.0
        self._last_end = 0.0
        self._impression_id: Optional[int] = None
        self._campaign_id = ""
        self._record_id: Optional[int] = None

    # -- lifecycle ----------------------------------------------------- #

    @property
    def active(self) -> bool:
        """Is a trace pending?"""
        return self._active

    @property
    def now(self) -> float:
        """The last simulated instant an instrumentation point reported."""
        return self._now

    def advance_to(self, instant: float) -> None:
        """Move the tracer's notion of sim-time forward (never back)."""
        if instant > self._now:
            self._now = instant

    def start(self, name: str, at: float, **attrs: object) -> None:
        """Open the pending trace with its root span."""
        if self._active:
            raise TraceError("a trace is already pending; commit or "
                             "abandon it before starting another")
        self._active = True
        self._now = self._last_end = at
        root = [0, None, name, at, None, attrs]
        self._spans = [root]
        self._stack = [root]
        self._impression_id = self._record_id = None
        self._campaign_id = ""

    def set_impression(self, impression_id: int, campaign_id: str) -> None:
        """Record the impression identity the pending trace belongs to."""
        if not self._active:
            return
        self._impression_id = impression_id
        self._campaign_id = campaign_id

    def set_record(self, record_id: int) -> None:
        """Record the collector row the pending trace produced."""
        if self._active:
            self._record_id = record_id

    def commit(self, end: Optional[float] = None) -> None:
        """Seal the pending trace and hand it, packed, to the recorder.

        Any spans still open (including the root) are closed at *end*,
        which defaults to the latest span end observed.  Requires the
        impression identity to have been set — a trace is committed only
        once an impression actually exists.  Attribute values that are
        not raw (see :func:`_packable`) are stringified here, once.
        """
        if not self._active:
            return
        if self._impression_id is None:
            raise TraceError("cannot commit a trace without an impression "
                             "identity; call set_impression first")
        close_at = end if end is not None else self._last_end
        for entry in self._stack:
            entry[4] = max(close_at, entry[3])
        for entry in self._spans:
            _packable(entry[5])
        rows = [tuple(entry) for entry in self._spans]  # smaller than lists
        self._active = False
        self.recorder.keep((
            trace_id_for(self.seed, self.scope, self._impression_id),
            self.scope, self._impression_id, self._campaign_id,
            self._record_id, marshal.dumps(rows)))

    def abandon(self) -> None:
        """Discard the pending trace (the pageview produced nothing).

        Only the pending flag flips; :meth:`start` resets the rest.
        """
        self._active = False

    # -- span recording ------------------------------------------------ #

    def begin(self, name: str, at: float, **attrs: object) -> None:
        """Open a nested span; children attach until :meth:`end`."""
        if not self._active:
            return
        if at > self._now:
            self._now = at
        entry = [len(self._spans), self._stack[-1][0], name, at, None, attrs]
        self._spans.append(entry)
        self._stack.append(entry)

    def end(self, at: float) -> None:
        """Close the innermost open span (the root only closes at commit)."""
        if not self._active or len(self._stack) <= 1:
            return
        if at > self._now:
            self._now = at
        entry = self._stack.pop()
        stop = entry[4] = max(at, entry[3])
        if stop > self._last_end:
            self._last_end = stop

    def span(self, name: str, start: float, end: float,
             **attrs: object) -> None:
        """Record one complete span under the innermost open span."""
        if not self._active:
            return
        if end < start:
            raise TraceError(f"span {name} ends before it starts "
                             f"({end} < {start})")
        if end > self._now:
            self._now = end
        if end > self._last_end:
            self._last_end = end
        self._spans.append([len(self._spans), self._stack[-1][0], name,
                            start, end, attrs])

    def event(self, name: str, at: float, **attrs: object) -> None:
        """Record an instantaneous span."""
        if not self._active:
            return
        if at > self._now:
            self._now = at
        if at > self._last_end:
            self._last_end = at
        self._spans.append([len(self._spans), self._stack[-1][0], name,
                            at, at, attrs])


class NullTracer(Tracer):
    """A tracer that records nothing; the default for standalone parts.

    Every method is a no-op, so ``tracer or NULL_TRACER`` keeps the
    instrumentation sites branch-free.
    """

    def __init__(self) -> None:
        super().__init__(recorder=FlightRecorder(head=0, tail=0))

    def start(self, name: str, at: float, **attrs: object) -> None:
        return

    def set_impression(self, impression_id: int, campaign_id: str) -> None:
        return

    def set_record(self, record_id: int) -> None:
        return

    def commit(self, end: Optional[float] = None) -> None:
        return

    def begin(self, name: str, at: float, **attrs: object) -> None:
        return

    def end(self, at: float) -> None:
        return

    def span(self, name: str, start: float, end: float,
             **attrs: object) -> None:
        return

    def event(self, name: str, at: float, **attrs: object) -> None:
        return

    def advance_to(self, instant: float) -> None:
        return


@dataclass
class FlightRecorder:
    """One shard's bounded head/tail trace retention — the black box.

    The first ``head`` committed traces are pinned; after that the last
    ``tail`` ride a ring buffer and everything squeezed out in between is
    dropped (and counted).  Retention is a pure function of the commit
    sequence, so per-shard recorders keep identical trace sets however
    the shards are scheduled; ``head=None`` disables the bound.  Traces
    are kept as committed, ``(trace_id, scope, impression_id, campaign_id,
    record_id, blob)`` with the span rows one ``marshal`` blob, and never
    read here: :meth:`seal` hands them on to a :class:`TraceArchive`.
    """

    head: Optional[int] = DEFAULT_HEAD_TRACES
    tail: int = DEFAULT_TAIL_TRACES
    committed: int = 0
    dropped: int = 0
    _head: list[tuple] = field(default_factory=list)
    _tail: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.head is not None and self.head < 0:
            raise ValueError("head must be non-negative (or None)")
        if self.tail < 0:
            raise ValueError("tail must be non-negative")
        self._tail = deque(self._tail, maxlen=self.tail)

    def keep(self, entry: tuple) -> None:
        """Retain one packed trace under the head/tail policy."""
        self.committed += 1
        if self.head is None or len(self._head) < self.head:
            self._head.append(entry)
            return
        if len(self._tail) == self.tail:
            self.dropped += 1
        self._tail.append(entry)

    def seal(self) -> tuple:
        """Every retained trace as one ``(count, blob, record_ids)`` segment:
        the entries in commit order, marshalled and compressed, and their
        record ids (-1 for none)."""
        entries = (*self._head, *self._tail)
        return (len(entries), zlib.compress(marshal.dumps(entries), 1),
                array("q", [-1 if e[4] is None else e[4] for e in entries]))


@dataclass
class TraceArchive:
    """The merged run's retained traces, read on demand.

    :meth:`absorb` appends each shard's :meth:`FlightRecorder.seal`
    segment as it is, in canonical plan order; reads decompress segments
    and shift their ids by the shard's offsets.  Once :meth:`join_store`
    has been given the enriched store, each read trace with a record id
    ends in that record's ``enrich.geo`` span.
    """

    #: ``(start, count, blob, record_ids, impression_offset,
    #: record_offset)`` per absorbed segment, and the traces they hold.
    _segments: list[tuple] = field(default_factory=list)
    _count: int = 0
    #: Lazy sorted ``record_id << 32 | position`` keys; absorb drops them.
    _record_index: Optional[array] = field(default=None, repr=False)
    #: The enriched store (see :meth:`join_store`); the dataset owns it.
    _store: object = field(default=None, repr=False, compare=False)

    def absorb(self, segment: tuple, impression_offset: int,
               record_offset: int) -> None:
        """Append a :meth:`FlightRecorder.seal` segment; reads shift its ids."""
        self._segments.append((self._count, *segment, impression_offset,
                               record_offset))
        self._count += segment[0]
        self._record_index = None

    def join_store(self, store) -> None:
        """Read ``enrich.geo`` from *store*: anything whose ``by_id`` maps a
        record id to its row (with ``timestamp``, ``country``, ``provider``,
        ``is_datacenter`` and ``dc_stage``) or None."""
        self._store = store

    def __len__(self) -> int:
        return self._count

    def _read(self, segment: tuple, entry: tuple, table: dict) -> TraceRecord:
        """One sealed entry as a trace: ids shifted, its record's
        ``enrich.geo`` joined as the root's last child.  Equal names, float
        instants (but zero: ``0.0 == -0.0``) and frozen attributes are one
        object across the traces read with *table*."""
        trace_id, scope, impression, campaign, record_id, blob = entry
        share = table.setdefault

        def instant(value):
            return share(value, value) if value and type(value) is float \
                else value

        spans = [SpanRecord(span_id, parent_id, share(name, name),
                            instant(start), instant(end),
                            _freeze_attrs(attrs, table))
                 for span_id, parent_id, name, start, end, attrs
                 in marshal.loads(blob)]
        if record_id is not None:
            record_id += segment[5]
            record = None if self._store is None \
                else self._store.by_id(record_id)
            if record is not None:
                at = instant(record.timestamp)
                geo = (("country", record.country),
                       ("provider", record.provider),
                       ("datacenter", record.is_datacenter),
                       ("stage", record.dc_stage))
                # Span ids are list indexes: this one follows the last span.
                spans.append(SpanRecord(
                    len(spans), 0, share("enrich.geo", "enrich.geo"), at, at,
                    _freeze_attrs(geo, table)))
        return TraceRecord(trace_id, scope, impression + segment[4], campaign,
                           record_id, tuple(spans))

    def traces(self) -> tuple[TraceRecord, ...]:
        """Every retained trace, in commit order, with equal values (names,
        instants, strings, pairs, attribute tuples) shared across them."""
        table: dict = {}
        return tuple([self._read(segment, entry, table)
                      for segment in self._segments
                      for entry in marshal.loads(zlib.decompress(segment[2]))])

    def _position(self, record_id: int) -> Optional[int]:
        """Position of the last trace of one record, opening no segment."""
        if self._record_index is None:
            self._record_index = array("q", sorted(
                [(record + offset) << 32 | position
                 for start, _, _, records, _, offset in self._segments
                 for position, record in enumerate(records, start)
                 if record >= 0]))
        keys = self._record_index
        at = bisect_left(keys, (record_id + 1) << 32) - 1
        found = at >= 0 and keys[at] >> 32 == record_id
        return keys[at] & 0xFFFFFFFF if found else None

    def find_by_record(self, record_id: int) -> Optional[TraceRecord]:
        """The trace that produced one collector record, opening at most
        one segment."""
        position = self._position(record_id)
        if position is None:
            return None
        segment = next(segment for segment in self._segments
                       if position < segment[0] + segment[1])
        entry = marshal.loads(zlib.decompress(segment[2]))[
            position - segment[0]]
        return self._read(segment, entry, {})


#: Shared do-nothing tracer for components built without one.
NULL_TRACER = NullTracer()
