"""Property test: sealed trace segments read back as the per-trace fold.

A finished shard seals its flight recorder into one compressed segment
(``FlightRecorder.seal``) and the merge appends it whole with the
shard's impression and record offsets (``FlightRecorder.absorb``).  The
oracle is the fold that keeps one packed entry per trace: every
retained entry, ids shifted, in a plain list.  For random
commit sequences under small head/tail bounds, with ``annotate`` calls
both before sealing (on the shard) and after (on the merge), every read
must equal the oracle's: ``traces()``, ``entries()`` (blobs compared by
value), ``find``, ``find_by_record`` and ``find_by_impression``.
"""

import marshal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import FlightRecorder, Tracer

record_ids = st.one_of(st.none(), st.integers(0, 7))
note_attrs = st.dictionaries(st.sampled_from(["country", "asn"]),
                             st.one_of(st.text(max_size=3), st.booleans()),
                             max_size=2)
notes = st.tuples(st.integers(0, 9), note_attrs)
# One shard: head and tail bounds, then commits (a record id, or None)
# interleaved with annotations (a record id and note attributes).
shards = st.tuples(
    st.integers(0, 3), st.integers(0, 3),
    st.lists(st.one_of(record_ids.map(lambda record: ("commit", record)),
                       notes.map(lambda note: ("annotate", *note))),
             max_size=14),
    st.integers(0, 9), st.integers(0, 9))


def run_shard(index, head, tail, steps):
    """A shard recorder after its commits and pre-seal annotations."""
    tracer = Tracer(FlightRecorder(head=head, tail=tail), seed=5,
                    scope=f"P/XX/{index}")
    impression = 0
    for step in steps:
        if step[0] == "annotate":
            tracer.recorder.annotate(step[1], "enrich.geo", at=1.5,
                                     **step[2])
            continue
        tracer.start("impression", at=float(impression), slot=impression)
        tracer.event("ws.frame", at=float(impression) + 0.5, ok=True)
        tracer.set_impression(impression % 5, "C1")
        if step[1] is not None:
            tracer.set_record(step[1])
        tracer.commit()
        impression += 1
    return tracer.recorder


class PerTraceFold:
    """The merge that keeps one packed entry per trace, notes inside it;
    lookups by record take the last retained trace, as a dict would."""

    def __init__(self):
        self.entries = []

    def fold(self, recorder, impression_offset, record_offset):
        for trace_id, scope, impression, campaign, record, *rest \
                in recorder.entries():
            self.entries.append((
                trace_id, scope, impression + impression_offset, campaign,
                None if record is None else record + record_offset, *rest))

    def annotate(self, record_id, name, at, **attrs):
        positions = {entry[4]: position
                     for position, entry in enumerate(self.entries)
                     if entry[4] is not None}
        if record_id not in positions:
            return False
        entry = self.entries[positions[record_id]]
        notes = marshal.loads(entry[6]) if len(entry) > 6 else []
        notes.append((name, at, attrs))
        self.entries[positions[record_id]] = \
            entry[:6] + (marshal.dumps(notes),)
        return True

    def traces(self):
        recorder = FlightRecorder(head=None, tail=0)
        for entry in self.entries:
            recorder.keep(entry)
        return recorder.traces()


def decoded(entries):
    return [(*entry[:5], *[marshal.loads(blob) for blob in entry[5:]])
            for entry in entries]


def first(traces, **match):
    return next((trace for trace in traces if all(
        getattr(trace, key) == value for key, value in match.items())), None)


@settings(max_examples=150, deadline=None)
@given(st.lists(shards, max_size=4),
       st.lists(st.tuples(st.integers(0, 20), note_attrs), max_size=8))
def test_sealed_segments_read_as_the_per_trace_fold(plan, late_notes):
    sealed = FlightRecorder(head=None, tail=0)
    oracle = PerTraceFold()
    for index, (head, tail, steps, impressions, records) in enumerate(plan):
        recorder = run_shard(index, head, tail, steps)
        sealed.absorb(recorder.seal(), impressions, records)
        oracle.fold(recorder, impressions, records)
    for record, attrs in late_notes:
        assert sealed.annotate(record, "enrich.asn", at=2.5, **attrs) \
            == oracle.annotate(record, "enrich.asn", at=2.5, **attrs)

    traces = oracle.traces()
    assert len(sealed) == sealed.committed == len(traces)
    assert sealed.traces() == traces
    assert decoded(sealed.entries()) == decoded(oracle.entries)
    for trace in traces:
        assert sealed.find(trace.trace_id) \
            == first(traces, trace_id=trace.trace_id)
    assert sealed.find("0" * 16) is None
    for record in range(-1, 100):
        assert sealed.find_by_record(record) \
            == first(traces[::-1], record_id=record)
    for impression in range(-1, 100):
        assert sealed.find_by_impression(impression) \
            == first(traces, impression_id=impression)
