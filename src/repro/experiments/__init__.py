"""Experiment harness: the paper's evaluation, end to end.

``experiments.config`` declares the 8 campaigns of Table 1 and the world
they ran in; ``experiments.runner`` executes the full pipeline (world →
browsing → ad serving → beacon → collector → enrichment → vendor reports)
and hands back an :class:`~repro.audit.dataset.AuditDataset`;
``experiments.tables`` / ``experiments.figures`` regenerate every table
and figure of §4.
"""

from repro.experiments.config import (
    ExperimentConfig,
    CampaignPlan,
    PeriodPlan,
    paper_experiment,
)
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentResult,
    ShardOutput,
    ShardSpec,
    World,
    build_world,
    merge_shard_outputs,
    plan_shards,
    run_paper_experiment,
    run_shard,
)
from repro.experiments.parallel import (
    ParallelExperimentRunner,
    run_paper_experiment_parallel,
)
from repro.experiments import tables, figures

__all__ = [
    "ExperimentConfig",
    "CampaignPlan",
    "PeriodPlan",
    "paper_experiment",
    "ExperimentRunner",
    "ExperimentResult",
    "ShardOutput",
    "ShardSpec",
    "World",
    "build_world",
    "merge_shard_outputs",
    "plan_shards",
    "run_shard",
    "ParallelExperimentRunner",
    "run_paper_experiment_parallel",
    "run_paper_experiment",
    "tables",
    "figures",
]
