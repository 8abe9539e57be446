"""Property test: sealed trace segments read back as the per-trace fold.

A finished shard seals its flight recorder into one compressed segment
(``FlightRecorder.seal``) and the merge appends it whole to a
``TraceArchive`` with the shard's impression and record offsets
(``TraceArchive.absorb``).  The oracle is the fold that keeps one packed
entry per trace: every retained entry, ids shifted, in a plain list,
decoded span by span.  For random commit sequences under small
head/tail bounds, and a random set of store rows joined on read, every
read must equal the oracle's: ``traces()`` and ``find_by_record``, each
trace ending in its record's ``enrich.geo`` span when the store holds
the record.
"""

import marshal
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    FlightRecorder,
    SpanRecord,
    TraceArchive,
    Tracer,
    TraceRecord,
    _attr_str,
)

record_ids = st.one_of(st.none(), st.integers(0, 7))
# One shard: head and tail bounds, the record id (or None) of each
# commit, then its impression and record offsets.
shards = st.tuples(st.integers(0, 3), st.integers(0, 3),
                   st.lists(record_ids, max_size=14),
                   st.integers(0, 9), st.integers(0, 9))
rows = st.builds(SimpleNamespace,
                 timestamp=st.floats(-1e9, 1e9),
                 country=st.sampled_from(["", "DE", "ES"]),
                 provider=st.text(max_size=3),
                 is_datacenter=st.booleans(),
                 dc_stage=st.sampled_from(["", "none", "deny_list"]))


def run_shard(index, head, tail, commits):
    """A shard recorder after its commits."""
    tracer = Tracer(FlightRecorder(head=head, tail=tail), seed=5,
                    scope=f"P/XX/{index}")
    for impression, record in enumerate(commits):
        tracer.start("impression", at=float(impression), slot=impression)
        tracer.event("ws.frame", at=float(impression) + 0.5, ok=True)
        tracer.set_impression(impression % 5, "C1")
        if record is not None:
            tracer.set_record(record)
        tracer.commit()
    return tracer.recorder


def freeze(attrs):
    return tuple([(key, _attr_str(value)) for key, value in attrs])


class PerTraceFold:
    """The merge that keeps one packed entry per trace and decodes each
    on its own, appending the joined row's span after the last."""

    def __init__(self, store):
        self.entries = []
        self.store = store

    def fold(self, recorder, impression_offset, record_offset):
        for trace_id, scope, impression, campaign, record, blob \
                in (*recorder._head, *recorder._tail):
            self.entries.append((
                trace_id, scope, impression + impression_offset, campaign,
                None if record is None else record + record_offset, blob))

    def traces(self):
        traces = []
        for *fields, blob in self.entries:
            spans = [SpanRecord(*row[:5], freeze(row[5].items()))
                     for row in marshal.loads(blob)]
            row = self.store.get(fields[4])
            if row is not None:
                spans.append(SpanRecord(
                    len(spans), 0, "enrich.geo", row.timestamp,
                    row.timestamp, freeze([
                        ("country", row.country),
                        ("provider", row.provider),
                        ("datacenter", row.is_datacenter),
                        ("stage", row.dc_stage)])))
            traces.append(TraceRecord(*fields, tuple(spans)))
        return tuple(traces)


def first(traces, **match):
    return next((trace for trace in traces if all(
        getattr(trace, key) == value for key, value in match.items())), None)


@settings(max_examples=150, deadline=None)
@given(st.lists(shards, max_size=4),
       st.dictionaries(st.integers(0, 20), rows, max_size=12))
def test_sealed_segments_read_as_the_per_trace_fold(plan, store):
    sealed = TraceArchive()
    sealed.join_store(SimpleNamespace(by_id=store.get))
    oracle = PerTraceFold(store)
    for index, (head, tail, commits, impressions, records) in enumerate(plan):
        recorder = run_shard(index, head, tail, commits)
        sealed.absorb(recorder.seal(), impressions, records)
        oracle.fold(recorder, impressions, records)

    traces = oracle.traces()
    assert len(sealed) == len(traces)
    assert sealed.traces() == traces
    for record in range(-1, 100):
        assert sealed.find_by_record(record) \
            == first(traces[::-1], record_id=record)
