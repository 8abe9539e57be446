"""Tests for shipping a shard's output from a pooled worker to the parent.

A worker returns ``pack_shard_output(out)``, one pickle of the
``ShardOutput``; the parent calls ``unpack_shard_output(blob)``.
The contract: the unpacked output is value-identical to ``out`` — every
field, including the raw store column payload, the trace set, the
coverage ledger and the event journal.  Traces travel as one sealed
segment; once read, equal trace values of one frame are one object.
"""

import dataclasses

import pytest

from repro.experiments.config import paper_experiment
from repro.experiments.parallel import pack_shard_output, unpack_shard_output
from repro.experiments.runner import build_world, plan_shards, run_shard
from repro.faults.plan import FaultPlan
from repro.obs.trace import TraceArchive


@pytest.fixture(scope="module")
def shipped():
    """First, middle and last shard (seed 7, scale 0.02), each shipped.

    The fourth pair is the first ``flaky`` shard with quarantined
    frames; the world depends on seed and scale only, so it is shared.
    """
    config = paper_experiment(seed=7, scale=0.02)
    world = build_world(config)
    shards = plan_shards(config)
    outputs = [run_shard(config, shards[index], world)
               for index in (0, len(shards) // 2, len(shards) - 1)]
    flaky = dataclasses.replace(config, faults=FaultPlan.preset("flaky"))
    outputs.append(next(
        output for output in (run_shard(flaky, shard, world)
                              for shard in plan_shards(flaky))
        if output.quarantine))
    return [(output, unpack_shard_output(pack_shard_output(output)))
            for output in outputs]


class TestRoundTrip:
    def test_outputs_value_identical(self, shipped):
        for output, back in shipped:
            assert back == output

    def test_store_columns_value_identical(self, shipped):
        # The store merge folds the shard's raw columns, so the payload
        # must come back value-identical — and a store rebuilt from it
        # must serialise to byte-identical JSONL.
        from repro.collector.store import ImpressionStore

        for output, back in shipped:
            assert back.store_columns == output.store_columns
            original = ImpressionStore()
            original.absorb_columns(output.store_columns)
            rebuilt = ImpressionStore()
            rebuilt.absorb_columns(back.store_columns)
            assert rebuilt.dumps_jsonl() == original.dumps_jsonl()

    def test_traces_and_metrics_survive(self, shipped):
        for output, back in shipped:
            assert output.traces
            assert back.traces == output.traces
            assert back.metrics == output.metrics
            assert back.coverage == output.coverage

    def test_events_survive(self, shipped):
        for output, back in shipped:
            assert output.events  # at least shard.started
            assert back.events == output.events
            assert back.events_dropped == output.events_dropped

    def test_faulted_shard_round_trips(self, shipped):
        # Quarantine entries and loss accounting cross with the shard.
        output, back = shipped[-1]
        assert output.quarantine
        assert back.quarantine == output.quarantine
        assert back == output


class TestShardShipping:
    def test_equal_trace_values_are_one_object(self, shipped):
        for _, back in shipped:
            recorder = TraceArchive()
            recorder.absorb(back.traces, 0, 0)
            seen: dict = {}
            for trace in recorder.traces():
                for span in trace.spans:
                    values = [span.name, span.start, span.end]
                    for pair in span.attrs:
                        values.extend(pair)
                    for value in values:
                        assert seen.setdefault(value, value) is value
