"""Tests for the deterministic tracing subsystem (trace + traceio)."""

import copy
import json
import marshal
import pickle
import pickletools
from types import SimpleNamespace

import pytest

from repro.obs import trace as trace_module
from repro.obs.trace import (
    NULL_TRACER,
    FlightRecorder,
    NullTracer,
    SpanRecord,
    TraceArchive,
    TraceError,
    Tracer,
    TraceRecord,
    trace_id_for,
)
from repro.obs.traceio import (
    AuditVerdict,
    dumps_chrome_trace,
    dumps_trace_jsonl,
    loads_trace_jsonl,
    render_explain,
    render_trace_tree,
    with_audit_spans,
)


def sealed_traces(recorder):
    """What a shard recorder holds, read back through a trace archive."""
    archive = TraceArchive()
    archive.absorb(recorder.seal(), 0, 0)
    return archive.traces()


def build_trace(tracer=None, impression_id=7, record_id=3):
    tracer = tracer or Tracer(seed=11, scope="P1/DE/0")
    tracer.start("impression", at=100.0, publisher="site.example")
    tracer.event("auction.decide", at=100.0, winner="C1")
    tracer.begin("transport.connect", at=100.5, connection=1)
    tracer.event("ws.frame", at=100.6, opcode="text")
    tracer.end(at=101.0)
    tracer.set_impression(impression_id, "C1")
    if record_id is not None:
        tracer.set_record(record_id)
    tracer.commit()
    return sealed_traces(tracer.recorder)[-1]


class TestTraceId:
    def test_pure_function_of_seed_scope_impression(self):
        assert trace_id_for(1, "a/b/0", 5) == trace_id_for(1, "a/b/0", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(2, "a/b/0", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(1, "a/b/1", 5)
        assert trace_id_for(1, "a/b/0", 5) != trace_id_for(1, "a/b/0", 6)

    def test_sixteen_hex_chars(self):
        token = trace_id_for(2016, "february/ES/0", 123)
        assert len(token) == 16
        int(token, 16)


class TestTracer:
    def test_commit_builds_document_order_tree(self):
        trace = build_trace()
        assert [span.name for span in trace.spans] == [
            "impression", "auction.decide", "transport.connect", "ws.frame"]
        root = trace.root
        assert root.parent_id is None
        connect = trace.spans_named("transport.connect")[0]
        frame = trace.spans_named("ws.frame")[0]
        assert connect.parent_id == root.span_id
        assert frame.parent_id == connect.span_id
        assert connect.duration == pytest.approx(0.5)
        # Root auto-closes at commit, at the latest span end observed.
        assert root.end == pytest.approx(101.0)

    def test_trace_identity_fields(self):
        trace = build_trace()
        assert trace.impression_id == 7
        assert trace.record_id == 3
        assert trace.campaign_id == "C1"
        assert trace.shard_scope == "P1/DE/0"
        assert trace.trace_id == trace_id_for(11, "P1/DE/0", 7)

    def test_attrs_stringified_deterministically(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0, flag=True, ratio=0.25, count=3, label="x")
        tracer.set_impression(1, "C")
        tracer.commit()
        trace = sealed_traces(tracer.recorder)[-1]
        assert trace.root.attrs == (("flag", "true"), ("ratio", "0.25"),
                                    ("count", "3"), ("label", "x"))
        assert trace.root.attr("flag") == "true"
        assert trace.root.attr("missing") is None

    def test_span_methods_are_noops_without_pending_trace(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.event("auction.decide", at=5.0)
        tracer.begin("transport.connect", at=6.0)
        tracer.end(at=7.0)
        assert tracer.commit() is None
        assert tracer.recorder.committed == 0

    def test_commit_without_impression_raises(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.commit()

    def test_double_start_raises(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.start("root", at=1.0)

    def test_abandon_discards_pending(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        tracer.abandon()
        assert not tracer.active
        assert tracer.recorder.committed == 0
        build_trace(tracer)     # a fresh start works afterwards
        assert tracer.recorder.committed == 1

    def test_end_never_pops_the_root(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        tracer.end(at=1.0)      # no open child: must be a no-op
        tracer.event("leaf", at=2.0)
        tracer.set_impression(1, "C")
        tracer.commit()
        trace = sealed_traces(tracer.recorder)[-1]
        assert trace.spans_named("leaf")[0].parent_id \
            == trace.root.span_id

    def test_now_advances_monotonically(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=10.0)
        tracer.advance_to(20.0)
        tracer.advance_to(15.0)
        assert tracer.now == 20.0

    def test_backwards_span_rejected(self):
        with pytest.raises(TraceError):
            SpanRecord(span_id=0, parent_id=None, name="x",
                       start=2.0, end=1.0)

    def test_null_tracer_is_inert(self):
        NULL_TRACER.start("root", at=0.0)
        NULL_TRACER.event("x", at=1.0)
        assert NULL_TRACER.commit() is None
        assert not NULL_TRACER.active
        assert isinstance(NULL_TRACER, NullTracer)


class CountingValue:
    """An attribute value that counts how often it is stringified."""

    def __init__(self) -> None:
        self.stringified = 0

    def __str__(self) -> str:
        self.stringified += 1
        return "counted"

    def __format__(self, spec: str) -> str:
        self.stringified += 1
        return "counted"


class TestPendingTraceLaziness:
    def record_one_of_each(self, tracer, values):
        tracer.start("root", at=0.0, value=values[0])
        tracer.begin("child", at=1.0, value=values[1])
        tracer.span("leaf", start=1.0, end=2.0, value=values[2])
        tracer.event("instant", at=2.0, value=values[3])

    def test_abandon_never_stringifies_attributes(self):
        values = [CountingValue() for _ in range(4)]
        tracer = Tracer(seed=1, scope="s")
        self.record_one_of_each(tracer, values)
        tracer.abandon()
        assert [value.stringified for value in values] == [0, 0, 0, 0]

    def test_commit_stringifies_each_attribute_once(self):
        values = [CountingValue() for _ in range(4)]
        tracer = Tracer(seed=1, scope="s")
        self.record_one_of_each(tracer, values)
        assert [value.stringified for value in values] == [0, 0, 0, 0]
        tracer.set_impression(1, "C")
        tracer.commit()
        trace = sealed_traces(tracer.recorder)[-1]
        assert [value.stringified for value in values] == [1, 1, 1, 1]
        assert [span.attr("value") for span in trace.spans] \
            == ["counted"] * 4

    def test_backwards_span_on_pending_trace_raises_at_call_time(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.span("x", start=2.0, end=1.0)


def geo_row(record_id, country="DE"):
    """The enriched store row fields the archive joins as ``enrich.geo``."""
    return SimpleNamespace(timestamp=record_id + 0.5, country=country,
                           provider="Acme", is_datacenter=False,
                           dc_stage="none")


def row_store(rows):
    """A store stand-in: ``by_id`` over a dict of rows."""
    return SimpleNamespace(by_id=rows.get)


class TestFlightRecorder:
    def make_entry(self, index):
        """One packed trace as ``Tracer.commit`` keeps it: a root span."""
        return (f"{index:016x}", "s", index, "C", index, marshal.dumps(
            [(0, None, "root", float(index), float(index) + 1, {})]))

    def filled(self, recorder, indexes):
        for index in indexes:
            recorder.keep(self.make_entry(index))
        return recorder

    def test_head_tail_retention_policy(self):
        recorder = self.filled(FlightRecorder(head=2, tail=3), range(1, 11))
        kept = [trace.impression_id for trace in sealed_traces(recorder)]
        assert kept == [1, 2, 8, 9, 10]     # first head, last tail
        assert recorder.committed == 10
        assert recorder.dropped == 5
        assert recorder.seal()[0] == 5

    def test_retention_is_a_pure_function_of_commit_order(self):
        first = self.filled(FlightRecorder(head=2, tail=2), range(1, 9))
        second = self.filled(FlightRecorder(head=2, tail=2), range(1, 9))
        assert first.seal() == second.seal()
        assert sealed_traces(first) == sealed_traces(second)
        assert first.dropped == second.dropped

    def test_unbounded_head_keeps_everything(self):
        recorder = self.filled(FlightRecorder(head=None, tail=0),
                               range(1, 100))
        assert recorder.seal()[0] == 99
        assert recorder.dropped == 0

    def test_zero_tail_keeps_only_the_head(self):
        recorder = self.filled(FlightRecorder(head=2, tail=0), range(1, 6))
        assert [trace.impression_id
                for trace in sealed_traces(recorder)] == [1, 2]
        assert recorder.dropped == 3
        assert recorder.seal()[0] == 2

    def test_lookups(self):
        archive = TraceArchive()
        archive.absorb(self.filled(FlightRecorder(), range(1, 5)).seal(),
                       impression_offset=0, record_offset=0)
        assert archive.find_by_record(3).impression_id == 3
        assert archive.find_by_record(99) is None
        # Lookups stay correct after another absorb drops the index.
        archive.absorb(self.filled(FlightRecorder(), [1]).seal(),
                       impression_offset=10, record_offset=4)
        assert archive.find_by_record(5).impression_id == 11
        assert len(archive) == 5

    def test_annotate_appends_child_of_root(self):
        # The joined enrich.geo span is the root's last child, at the
        # record's timestamp, with the row's verdicts in a fixed order.
        archive = TraceArchive()
        archive.absorb(self.filled(FlightRecorder(), [1, 2]).seal(), 0, 0)
        archive.join_store(row_store({1: geo_row(1)}))
        trace = archive.find_by_record(1)
        added = trace.spans_named("enrich.geo")[0]
        assert added is trace.spans[-1]
        assert added.parent_id == trace.root.span_id
        assert added.start == added.end == 1.5
        assert added.attrs == (("country", "DE"), ("provider", "Acme"),
                               ("datacenter", "false"), ("stage", "none"))
        assert archive.traces()[0] == trace
        # A trace whose record the store does not hold gets no span.
        assert not archive.find_by_record(2).spans_named("enrich.geo")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(head=-1)
        with pytest.raises(ValueError):
            FlightRecorder(tail=-1)


class TestPackedRetention:
    def test_commit_constructs_no_span_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a record was built at commit")

        tracer = Tracer(seed=11, scope="P1/DE/0")
        with monkeypatch.context() as patched:
            patched.setattr(trace_module, "SpanRecord", refuse)
            patched.setattr(trace_module, "TraceRecord", refuse)
            tracer.start("impression", at=100.0)
            tracer.event("auction.decide", at=100.0, winner="C1")
            tracer.set_impression(7, "C1")
            assert tracer.commit() is None
        assert tracer.recorder.committed == 1
        assert sealed_traces(tracer.recorder)[0].spans[1].attr("winner") \
            == "C1"

    def test_annotate_leaves_the_span_blob_untouched(self):
        # The join reads the store on every read and writes nothing: the
        # segment stays as sealed, and the joined span follows the last
        # recorded one.
        tracer = Tracer(seed=11, scope="P1/DE/0")
        build_trace(tracer)
        segment = tracer.recorder.seal()
        archive = TraceArchive()
        archive.absorb(segment, 0, 0)
        archive.join_store(row_store({3: geo_row(3)}))
        spans = archive.find_by_record(3).spans
        assert archive.traces()[0].spans == spans
        assert [(span.span_id, span.parent_id, span.name)
                for span in spans[-2:]] == [(3, 2, "ws.frame"),
                                            (4, 0, "enrich.geo")]
        assert archive._segments[0][1:4] == segment


class TestPickleForm:
    """Spans and traces pickle as calls to their constructors."""

    def test_committed_trace_pickles_without_build(self):
        trace = build_trace()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            opcodes = {opcode.name for opcode, _, _
                       in pickletools.genops(pickle.dumps(trace, protocol))}
            assert "BUILD" not in opcodes, protocol

    def test_round_trip_keeps_values_and_attribute_sharing(self):
        tracer = Tracer(seed=11, scope="P1/DE/0")
        build_trace(tracer, impression_id=1)
        build_trace(tracer, impression_id=2)
        first, second = sealed_traces(tracer.recorder)
        # One traces() call made equal attribute tuples one object.
        assert first.spans[2].attrs is second.spans[2].attrs
        loaded = pickle.loads(pickle.dumps(
            [first, second], pickle.HIGHEST_PROTOCOL))
        assert loaded == [first, second]
        assert loaded[0].spans[2].attrs is loaded[1].spans[2].attrs
        assert loaded[0].spans[0].attrs[0] is loaded[1].spans[0].attrs[0]
        assert copy.copy(first) == first
        assert copy.deepcopy(first) == first

    def test_backwards_span_in_a_crafted_pickle_raises_on_load(self):
        class Backwards:
            def __reduce__(self):
                return (SpanRecord, (0, None, "x", 2.0, 1.0, ()))

        blob = pickle.dumps(Backwards())
        with pytest.raises(TraceError):
            pickle.loads(blob)


class TestTraceIO:
    def test_chrome_export_is_strict_json_with_one_tid_per_trace(self):
        traces = [build_trace(Tracer(seed=1, scope="a"), impression_id=1,
                              record_id=1),
                  build_trace(Tracer(seed=1, scope="b"), impression_id=2,
                              record_id=2)]
        text = dumps_chrome_trace(traces)
        document = json.loads(text)
        events = document["traceEvents"]
        assert {event["tid"] for event in events} == {1, 2}
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(metadata) == 2
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == sum(len(trace.spans) for trace in traces)
        connect = next(event for event in complete
                       if event["name"] == "transport.connect")
        assert connect["dur"] == 500_000      # 0.5 s in microseconds
        assert connect["cat"] == "transport"
        assert "NaN" not in text and "Infinity" not in text

    def test_jsonl_round_trip_is_lossless(self):
        traces = (build_trace(), build_trace(Tracer(seed=2, scope="x"),
                                             impression_id=9,
                                             record_id=None))
        assert loads_trace_jsonl(dumps_trace_jsonl(traces)) == traces

    @staticmethod
    def jsonl_with_bad_second_trace(mutate) -> str:
        good = json.loads(dumps_trace_jsonl([build_trace()]))
        bad = json.loads(dumps_trace_jsonl([build_trace()]))
        mutate(bad)
        return "\n".join([json.dumps(good), "", json.dumps(bad)]) + "\n"

    def test_jsonl_undecodable_line_is_located(self):
        text = dumps_trace_jsonl([build_trace()]) + "{not json\n"
        with pytest.raises(ValueError,
                           match="line 2: JSONDecodeError: Expecting"):
            loads_trace_jsonl(text)

    def test_jsonl_missing_key_is_located(self):
        text = self.jsonl_with_bad_second_trace(
            lambda payload: payload.pop("shard_scope"))
        with pytest.raises(ValueError,
                           match="line 3: KeyError: 'shard_scope'"):
            loads_trace_jsonl(text)

    def test_jsonl_three_item_attribute_is_located(self):
        text = self.jsonl_with_bad_second_trace(
            lambda payload: payload["spans"][0]["attrs"].append(
                ["a", "b", "c"]))
        with pytest.raises(ValueError, match="line 3: ValueError: too many"):
            loads_trace_jsonl(text)

    def test_jsonl_span_ending_before_start_is_located(self):
        def reverse(payload):
            payload["spans"][1]["end"] = payload["spans"][1]["start"] - 1
        text = self.jsonl_with_bad_second_trace(reverse)
        with pytest.raises(TraceError, match="line 3: span .* ends before"):
            loads_trace_jsonl(text)

    def test_render_tree_shows_nesting_and_attrs(self):
        rendered = render_trace_tree(build_trace())
        assert "impression" in rendered
        assert "`-- ws.frame" in rendered or "|-- ws.frame" in rendered
        assert "opcode=text" in rendered
        assert "+0.500s" in rendered

    def test_with_audit_spans_appends_classifications(self):
        verdicts = [AuditVerdict("fraud", "clean", "no dc hit")]
        extended = with_audit_spans(build_trace(), verdicts, at=102.0)
        classify = extended.spans_named("audit.classify")
        assert len(classify) == 1
        assert classify[0].attr("audit") == "fraud"
        assert classify[0].parent_id == extended.root.span_id

    def test_render_explain_includes_header_tree_and_verdicts(self):
        verdicts = [AuditVerdict("viewability", "viewable", "2.0s"),
                    AuditVerdict("fraud", "clean", "no dc hit")]
        rendered = render_explain(build_trace(), verdicts,
                                  header_lines=["  extra header"])
        assert "Impression receipt" in rendered
        assert "impression #7 · record #3" in rendered
        assert "extra header" in rendered
        assert "audit.classify" in rendered
        assert "Audit verdicts" in rendered
        assert "viewable" in rendered
