"""End-to-end determinism and recovery under fault injection.

The fault layer's contract, verified on a miniature experiment:

* ``--faults flaky`` runs to completion, the coverage ledger reconciles
  exactly, and serial vs. ``--jobs 2`` execution produce byte-identical
  datasets, coverage exports and sim-domain metrics;
* an injected shard crash that recovery retries absorb leaves every
  artifact byte-identical to a run without the crash;
* a shard that exhausts its retries is reported lost — identically in
  serial and pooled execution — instead of aborting the run.
"""

import dataclasses
import json

import pytest

from repro.audit.coverage import (
    coverage_to_json,
    render_coverage,
    validate_coverage_document,
)
from repro.experiments.config import paper_experiment
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments import ExperimentRunner
from repro.experiments.runner import plan_shards
from repro.faults.plan import FaultPlan
from repro.obs.metrics import SIM

SEED, SCALE = 2016, 0.01


def flaky_config():
    return paper_experiment(seed=SEED, scale=SCALE,
                            faults=FaultPlan.preset("flaky"))


@pytest.fixture(scope="module")
def flaky_serial():
    return ExperimentRunner(flaky_config()).run()


@pytest.fixture(scope="module")
def flaky_parallel():
    return ParallelExperimentRunner(flaky_config(), jobs=2).run()


class TestFlakyRun:
    def test_run_completes_and_reconciles(self, flaky_serial):
        coverage = flaky_serial.coverage
        totals = coverage.counts.totals()
        assert totals.delivered > 0
        assert totals.lost > 0          # the flaky preset does hurt
        assert coverage.counts.reconciles
        assert coverage.lost_shards == ()

    def test_coverage_export_validates(self, flaky_serial):
        document = json.loads(coverage_to_json(flaky_serial.coverage))
        assert validate_coverage_document(document) == []

    def test_rendered_coverage_reports_ok(self, flaky_serial):
        text = render_coverage(flaky_serial.coverage)
        assert "-> OK" in text
        assert "MISMATCH" not in text

    def test_serial_and_parallel_byte_identical(self, flaky_serial,
                                                flaky_parallel):
        assert list(flaky_serial.dataset.store) == \
            list(flaky_parallel.dataset.store)
        assert coverage_to_json(flaky_serial.coverage) == \
            coverage_to_json(flaky_parallel.coverage)
        assert render_coverage(flaky_serial.coverage) == \
            render_coverage(flaky_parallel.coverage)
        assert flaky_serial.metrics.restrict(SIM).to_json() == \
            flaky_parallel.metrics.restrict(SIM).to_json()
        assert flaky_serial.stats == flaky_parallel.stats


class TestCrashRecovery:
    @staticmethod
    def crashing_config(crash_attempts):
        config = paper_experiment(seed=SEED, scale=SCALE)
        scope = plan_shards(config)[0].scope
        return dataclasses.replace(
            config,
            faults=FaultPlan(name="crashy", crash_scopes=(scope,),
                             crash_attempts=crash_attempts)), scope

    def test_recovered_crash_is_invisible(self):
        baseline = ExperimentRunner(
            paper_experiment(seed=SEED, scale=SCALE)).run()
        config, _ = self.crashing_config(crash_attempts=1)
        recovered = ExperimentRunner(config).run()
        assert list(recovered.dataset.store) == list(baseline.dataset.store)
        assert coverage_to_json(recovered.coverage) == \
            coverage_to_json(baseline.coverage)
        assert recovered.coverage.lost_shards == ()
        # A fully absorbed crash leaves no trace at all — not even a
        # lost_shards stat (the key only appears when a shard is lost or
        # an active plan asks for the ledger).
        assert recovered.stats == baseline.stats
        assert "lost_shards" not in recovered.stats

    def test_exhausted_retries_lose_shard_consistently(self):
        config, scope = self.crashing_config(crash_attempts=99)
        serial = ExperimentRunner(config).run()
        parallel = ParallelExperimentRunner(config, jobs=2).run()
        assert serial.coverage.lost_shards == (scope,)
        assert serial.stats["lost_shards"] == 1
        assert "crash recovery exhausted" in \
            render_coverage(serial.coverage)
        assert list(serial.dataset.store) == list(parallel.dataset.store)
        assert coverage_to_json(serial.coverage) == \
            coverage_to_json(parallel.coverage)
        assert serial.stats == parallel.stats
