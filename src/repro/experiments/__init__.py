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
    ExperimentResult,
    ShardOutput,
    ShardSpec,
    World,
    build_world,
    plan_shards,
    run_shard,
)
from repro.experiments.parallel import (
    ExperimentRunner,
    ParallelExperimentRunner,
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
    "plan_shards",
    "run_shard",
    "ParallelExperimentRunner",
    "tables",
    "figures",
]
