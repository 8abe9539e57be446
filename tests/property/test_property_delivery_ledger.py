"""Property test: the coverage ledger and the vendor aggregates agree.

The merged result counts deliveries from the coverage ledger, which each
shard fills with one ``record_delivered`` per served impression.  The
shards' ``ReportAggregate.total_impressions`` count the same deliveries
independently, from the ad server's impression list, so the ledger-derived
``stats["delivered"]`` and ``delivered(campaign_id)`` must equal their
sums, fault-free or under the ``flaky`` plan.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import paper_experiment
from repro.experiments.runner import (
    ShardMerger,
    build_world,
    plan_shards,
    run_shard,
)
from repro.faults.plan import FaultPlan


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       preset=st.sampled_from(("none", "flaky")))
def test_ledger_counts_equal_report_aggregate_totals(seed, preset):
    config = paper_experiment(seed=seed, scale=0.002,
                              faults=FaultPlan.preset(preset))
    world = build_world(config)
    merger = ShardMerger(config, world)
    totals: Counter = Counter()
    for shard in plan_shards(config):
        output = run_shard(config, shard, world)
        for campaign_id, aggregate in output.report_aggregates.items():
            totals[campaign_id] += aggregate.total_impressions
        merger.fold(output)
    result = merger.result()

    assert sum(totals.values()) > 0
    assert result.stats["delivered"] == sum(totals.values())
    for plan in config.campaigns:
        campaign_id = plan.spec.campaign_id
        assert result.delivered(campaign_id) == totals[campaign_id]
