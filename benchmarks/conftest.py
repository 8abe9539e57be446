"""Shared fixtures for the benchmark harness.

All table/figure benchmarks consume one session-scoped experiment run
(the expensive part); each benchmark then times the analysis that regenerates
its table or figure and writes the rendered rows to
``benchmarks/output/`` so runs can be diffed against the paper and
against each other.

``REPRO_BENCH_SCALE`` (default 0.12) sizes the world; set it to 1.0 to
regenerate the paper-scale numbers recorded in EXPERIMENTS.md.
``REPRO_JOBS`` (default 1) runs the shared experiment across that many
worker processes — the result is byte-identical, it just arrives faster.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner, paper_experiment

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2016"))
BENCH_JOBS = int(os.environ.get("REPRO_JOBS", "1"))

_OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def paper_result():
    """The shared experiment run every benchmark analyses.

    Also drops the run's metrics snapshot (strict JSON) next to the
    rendered tables, so a benchmark run records how much simulation work
    produced its numbers and how long the shards took on this host.
    """
    result = ExperimentRunner(
        paper_experiment(seed=BENCH_SEED, scale=BENCH_SCALE),
        jobs=BENCH_JOBS).run()
    _OUTPUT_DIR.mkdir(exist_ok=True)
    (_OUTPUT_DIR / "metrics.json").write_text(
        result.metrics.to_json() + "\n", encoding="utf-8")
    return result


@pytest.fixture(scope="session")
def bench_output():
    """Writer for rendered tables/figures (benchmarks/output/*.txt)."""
    _OUTPUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = _OUTPUT_DIR / name
        path.write_text(text + "\n", encoding="utf-8")

    return write
