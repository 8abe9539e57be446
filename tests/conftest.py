"""Session-scoped miniature experiment shared by experiments/integration tests."""

import pytest

from repro.experiments.config import paper_experiment
from repro.experiments import ExperimentRunner


@pytest.fixture(scope="session")
def small_config():
    return paper_experiment(seed=2016, scale=0.03)


@pytest.fixture(scope="session")
def small_result(small_config):
    return ExperimentRunner(small_config).run()
