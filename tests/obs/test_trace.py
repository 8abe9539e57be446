"""Tests for the deterministic tracing subsystem (trace + traceio)."""

import copy
import json
import pickle
import pickletools

import pytest

from repro.obs import trace as trace_module
from repro.obs.trace import (
    NULL_TRACER,
    FlightRecorder,
    NullTracer,
    SpanRecord,
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
    return tracer.recorder.traces()[-1]


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
        trace = tracer.recorder.traces()[-1]
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
        assert len(tracer.recorder) == 0

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
        assert len(tracer.recorder) == 0
        build_trace(tracer)     # a fresh start works afterwards
        assert len(tracer.recorder) == 1

    def test_end_never_pops_the_root(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        tracer.end(at=1.0)      # no open child: must be a no-op
        tracer.event("leaf", at=2.0)
        tracer.set_impression(1, "C")
        tracer.commit()
        trace = tracer.recorder.traces()[-1]
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
        trace = tracer.recorder.traces()[-1]
        assert [value.stringified for value in values] == [1, 1, 1, 1]
        assert [span.attr("value") for span in trace.spans] \
            == ["counted"] * 4

    def test_backwards_span_on_pending_trace_raises_at_call_time(self):
        tracer = Tracer(seed=1, scope="s")
        tracer.start("root", at=0.0)
        with pytest.raises(TraceError):
            tracer.span("x", start=2.0, end=1.0)


class TestFlightRecorder:
    def make_trace(self, index):
        return TraceRecord(
            trace_id=f"{index:016x}", shard_scope="s", impression_id=index,
            campaign_id="C", record_id=index,
            spans=(SpanRecord(span_id=0, parent_id=None, name="root",
                              start=float(index), end=float(index) + 1),))

    def test_head_tail_retention_policy(self):
        recorder = FlightRecorder(head=2, tail=3)
        for index in range(1, 11):
            recorder.record(self.make_trace(index))
        kept = [trace.impression_id for trace in recorder.traces()]
        assert kept == [1, 2, 8, 9, 10]     # first head, last tail
        assert recorder.committed == 10
        assert recorder.dropped == 5
        assert len(recorder) == 5

    def test_retention_is_a_pure_function_of_commit_order(self):
        first = FlightRecorder(head=2, tail=2)
        second = FlightRecorder(head=2, tail=2)
        for index in range(1, 9):
            first.record(self.make_trace(index))
            second.record(self.make_trace(index))
        assert first.traces() == second.traces()
        assert first.dropped == second.dropped

    def test_unbounded_head_keeps_everything(self):
        recorder = FlightRecorder(head=None, tail=0)
        for index in range(1, 100):
            recorder.record(self.make_trace(index))
        assert len(recorder) == 99
        assert recorder.dropped == 0

    def test_zero_tail_keeps_only_the_head(self):
        recorder = FlightRecorder(head=2, tail=0)
        for index in range(1, 6):
            recorder.record(self.make_trace(index))
        assert [trace.impression_id for trace in recorder.traces()] == [1, 2]
        assert recorder.dropped == 3
        assert len(recorder) == 2

    def test_lookups(self):
        recorder = FlightRecorder(head=4, tail=4)
        for index in range(1, 5):
            recorder.record(self.make_trace(index))
        assert recorder.find_by_record(3).impression_id == 3
        assert recorder.find_by_impression(2).record_id == 2
        assert recorder.find(f"{1:016x}").impression_id == 1
        assert recorder.find_by_record(99) is None
        # Lookups stay correct after more commits invalidate the index.
        recorder.record(self.make_trace(5))
        assert recorder.find_by_record(5).impression_id == 5

    def test_annotate_appends_child_of_root(self):
        recorder = FlightRecorder()
        recorder.record(self.make_trace(1))
        assert recorder.annotate(1, "enrich.geo", at=1.5, country="DE")
        trace = recorder.find_by_record(1)
        added = trace.spans_named("enrich.geo")[0]
        assert added.parent_id == trace.root.span_id
        assert added.attr("country") == "DE"
        assert not recorder.annotate(99, "enrich.geo", at=0.0)

    def test_tail_note_stays_on_its_trace_through_eviction(self):
        # A note on a tail entry rides inside it: the eviction that
        # shifts the ring buffer moves the note with its trace, never
        # onto the trace that now holds the note's old position.
        recorder = FlightRecorder(head=1, tail=2)
        for index in (1, 2, 3):
            recorder.record(self.make_trace(index))
        assert recorder.annotate(3, "enrich.geo", at=3.5, country="DE")
        recorder.record(self.make_trace(4))     # evicts 2; 3 shifts down
        assert not recorder.annotate(2, "enrich.geo", at=2.5)
        merged = FlightRecorder(head=None, tail=0)
        merged.absorb(recorder.seal(), impression_offset=10, record_offset=0)
        for held in (recorder, merged):
            noted = {trace.impression_id % 10: [
                span.attr("country") for span in trace.spans_named(
                    "enrich.geo")] for trace in held.traces()}
            assert noted == {1: [], 3: ["DE"], 4: []}

    def test_sealed_notes_keep_values_that_compare_equal_apart(self):
        # Notes on sealed traces share one table entry per distinct
        # (name, attrs); True, 1 and 1.0, or 0.0 and -0.0, compare equal
        # but read differently, so each must keep its own entry.
        recorder = FlightRecorder(head=None, tail=0)
        for index in range(1, 7):
            recorder.record(self.make_trace(index))
        merged = FlightRecorder(head=None, tail=0)
        merged.absorb(recorder.seal(), impression_offset=0, record_offset=0)
        values = {1: True, 2: 1, 3: 1.0, 4: 0.0, 5: -0.0, 6: True}
        for record, value in values.items():
            assert merged.annotate(record, "enrich.geo", at=2.5, flag=value)
        assert merged.annotate(6, "enrich.asn", at=3.0, flag=1)
        read = {trace.record_id: [(span.name, span.attr("flag"))
                                  for span in trace.spans[1:]]
                for trace in merged.traces()}
        assert read == {
            1: [("enrich.geo", "true")], 2: [("enrich.geo", "1")],
            3: [("enrich.geo", "1")], 4: [("enrich.geo", "0")],
            5: [("enrich.geo", "-0")],
            6: [("enrich.geo", "true"), ("enrich.asn", "1")]}
        assert [type(attrs["flag"]) for _, attrs in merged._notes.table] \
            == [bool, int, float, float, float, int]
        # A note added after a read is found by the next one.
        assert merged.annotate(1, "enrich.asn", at=4.0, flag=2)
        assert [(span.name, span.attr("flag")) for span
                in merged.find_by_record(1).spans[1:]] \
            == [("enrich.geo", "true"), ("enrich.asn", "2")]

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
        assert len(tracer.recorder) == 1
        assert tracer.recorder.traces()[0].spans[1].attr("winner") == "C1"

    def test_annotate_leaves_the_span_blob_untouched(self):
        tracer = Tracer(seed=11, scope="P1/DE/0")
        build_trace(tracer)
        (entry,) = tracer.recorder.entries()
        assert tracer.recorder.annotate(3, "enrich.geo", at=101.5,
                                        country="DE")
        assert tracer.recorder.annotate(3, "enrich.asn", at=101.6, asn=1)
        (annotated,) = tracer.recorder.entries()
        assert annotated[:6] == entry[:6]
        assert annotated[5] is entry[5]
        spans = tracer.recorder.find_by_record(3).spans
        assert [(span.span_id, span.parent_id, span.name)
                for span in spans[-2:]] == [(4, 0, "enrich.geo"),
                                            (5, 0, "enrich.asn")]


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
        first, second = tracer.recorder.traces()
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
