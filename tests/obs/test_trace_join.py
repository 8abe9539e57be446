"""The ``enrich.geo`` span is joined from the sealed store on read.

Enrichment writes its verdicts only into the store's columns; the merged
``TraceArchive`` appends each trace's ``enrich.geo`` span from its
record's row when the trace is read.  Over ``small_result`` and a small
serial run under the ``hostile`` fault plan (seed 2016, scale 0.004,
where two stored records have no trace), every trace with a record id
must end in exactly one such span equal to its row, a trace without a
record id must have none, and a record without a trace must break
neither ``traces()`` nor ``find_by_record``.
"""

import pytest

from repro.experiments.config import paper_experiment
from repro.experiments import ExperimentRunner
from repro.faults.plan import FaultPlan


@pytest.fixture(scope="module")
def tiny_hostile_result():
    return ExperimentRunner(paper_experiment(
        seed=2016, scale=0.004, faults=FaultPlan.preset("hostile"))).run()


@pytest.fixture(params=["small_result", "tiny_hostile_result"])
def result(request):
    return request.getfixturevalue(request.param)


def expected_geo(record):
    return (("country", record.country), ("provider", record.provider),
            ("datacenter", "true" if record.is_datacenter else "false"),
            ("stage", record.dc_stage))


def test_every_recorded_trace_ends_in_its_rows_geo_span(result):
    store = result.dataset.store
    traces = result.recorder.traces()
    assert any(trace.record_id is not None for trace in traces)
    for trace in traces:
        geo = trace.spans_named("enrich.geo")
        if trace.record_id is None:
            assert geo == []
            continue
        record = store.by_id(trace.record_id)
        (span,) = geo
        assert span is trace.spans[-1]
        assert span.span_id == len(trace.spans) - 1
        assert span.parent_id == trace.root.span_id
        assert span.start == span.end == record.timestamp
        assert span.attrs == expected_geo(record)


def test_find_by_record_reads_what_traces_reads(result):
    by_record = {trace.record_id: trace for trace in result.recorder.traces()
                 if trace.record_id is not None}
    for record in result.dataset.store:
        assert result.recorder.find_by_record(record.record_id) \
            == by_record.get(record.record_id)


def test_a_record_without_a_trace_breaks_no_read(tiny_hostile_result):
    recorder = tiny_hostile_result.recorder
    traced = {trace.record_id for trace in recorder.traces()}
    untraced = [record.record_id for record in tiny_hostile_result.dataset.store
                if record.record_id not in traced]
    assert untraced
    for record_id in untraced:
        assert recorder.find_by_record(record_id) is None
