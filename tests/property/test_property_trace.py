"""Property test: the lazy ``Tracer`` commits what an eager builder would.

``Tracer`` keeps pending spans raw and freezes them only at commit.  The
oracle below is the straightforward eager design: it builds each
:class:`SpanRecord` and stringifies its attributes the moment a span is
recorded or closed, and sorts by span id at commit.  Random call
sequences must leave both with equal committed traces, equal errors and
the same ``active``/``now`` state after every call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    SpanRecord,
    TraceError,
    Tracer,
    TraceRecord,
    _freeze_attrs,
    trace_id_for,
)
from tests.obs.test_trace import sealed_traces

SEED, SCOPE = 5, "period/XX/0"


class EagerTracer:
    """Reference builder: freeze every span as soon as it is known."""

    def __init__(self) -> None:
        self.committed: list[TraceRecord] = []
        self.now = 0.0
        self.abandon()

    def abandon(self) -> None:
        self.active = False
        self.closed: list[SpanRecord] = []
        self.open: list[tuple] = []     # (id, parent, name, start, attrs)
        self.next_id = 0
        self.last_end = 0.0
        self.identity = None
        self.record_id = None

    def _open(self, name, at, attrs) -> None:
        parent = self.open[-1][0] if self.open else None
        self.open.append((self.next_id, parent, name, at,
                          _freeze_attrs(attrs)))
        self.next_id += 1

    def _close(self, at) -> None:
        span_id, parent, name, start, attrs = self.open.pop()
        end = max(at, start)
        self.last_end = max(self.last_end, end)
        self.closed.append(SpanRecord(span_id, parent, name, start, end,
                                      attrs))

    def _advance(self, at) -> None:
        self.now = max(self.now, at)

    def start(self, name, at, **attrs) -> None:
        if self.active:
            raise TraceError("already pending")
        self.active = True
        self.now = self.last_end = at
        self._open(name, at, attrs)

    def begin(self, name, at, **attrs) -> None:
        if self.active:
            self._advance(at)
            self._open(name, at, attrs)

    def end(self, at) -> None:
        if self.active and len(self.open) > 1:
            self._advance(at)
            self._close(at)

    def span(self, name, start, end, **attrs) -> None:
        if not self.active:
            return
        record = SpanRecord(self.next_id, self.open[-1][0], name, start,
                            end, _freeze_attrs(attrs))
        self.next_id += 1
        self._advance(end)
        self.last_end = max(self.last_end, end)
        self.closed.append(record)

    def event(self, name, at, **attrs) -> None:
        self.span(name, at, at, **attrs)

    def set_impression(self, impression_id, campaign_id) -> None:
        if self.active:
            self.identity = (impression_id, campaign_id)

    def set_record(self, record_id) -> None:
        if self.active:
            self.record_id = record_id

    def commit(self, end=None):
        # Like Tracer.commit, hands the trace over and returns None.
        if not self.active:
            return None
        if self.identity is None:
            raise TraceError("no impression")
        close_at = self.last_end if end is None else end
        while self.open:
            self._close(max(close_at, self.open[-1][3]))
        impression_id, campaign_id = self.identity
        trace = TraceRecord(
            trace_id=trace_id_for(SEED, SCOPE, impression_id),
            shard_scope=SCOPE, impression_id=impression_id,
            campaign_id=campaign_id, record_id=self.record_id,
            spans=tuple(sorted(self.closed, key=lambda span: span.span_id)))
        self.committed.append(trace)
        self.abandon()


# A narrow range makes ties and near-ties between instants common.
instants = st.one_of(st.integers(0, 10).map(float),
                     st.floats(min_value=0.0, max_value=10.0))
names = st.sampled_from(["impression", "auction.decide", "transport.connect",
                         "ws.frame", "collector.ingest"])
attrs = st.dictionaries(
    st.sampled_from(["campaign", "ok", "latency", "bytes", "reason"]),
    st.one_of(st.booleans(), st.integers(-10**6, 10**6),
              st.floats(allow_nan=False), st.text(max_size=8)),
    max_size=3)

calls = st.one_of(
    st.tuples(st.just("start"), names, instants, attrs),
    st.tuples(st.just("begin"), names, instants, attrs),
    st.tuples(st.just("span"), names, instants, instants, attrs),
    st.tuples(st.just("event"), names, instants, attrs),
    st.tuples(st.just("end"), instants),
    st.tuples(st.just("set_impression"), st.integers(0, 50),
              st.sampled_from(["C1", "C2"])),
    st.tuples(st.just("set_record"), st.integers(0, 50)),
    st.tuples(st.just("commit"), st.one_of(st.none(), instants)),
    st.tuples(st.just("abandon")),
)

# Mostly pageview-shaped: a start, random calls, then usually an ending.
pageviews = st.tuples(
    st.tuples(st.just("start"), names, instants, attrs),
    st.lists(calls, max_size=10),
    st.sampled_from([[("set_impression", 1, "C1"), ("commit", None)],
                     [("abandon",)], []]),
).map(lambda parts: [parts[0], *parts[1], *parts[2]])
sequences = st.lists(pageviews, max_size=5).map(
    lambda pageviews: [call for pageview in pageviews for call in pageview])


def apply(tracer, call):
    """Run one call; return its result or the TraceError it raised."""
    method, *args = call
    if args and isinstance(args[-1], dict):
        *args, kwargs = args
    else:
        kwargs = {}
    try:
        return getattr(tracer, method)(*args, **kwargs)
    except TraceError:
        return TraceError


@settings(max_examples=300, deadline=None)
@given(sequences)
def test_lazy_tracer_commits_what_an_eager_builder_would(sequence):
    lazy, eager = Tracer(seed=SEED, scope=SCOPE), EagerTracer()
    for call in sequence:
        assert apply(lazy, call) == apply(eager, call), call
        assert lazy.active == eager.active
        assert lazy.now == eager.now
    assert list(sealed_traces(lazy.recorder)) == eager.committed
